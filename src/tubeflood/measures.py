"""Tube-length measures and the one integral layer of the model.

A measure assigns to each set of tube lengths the total cross-sectional
area of the tubes with those lengths.  It is represented as a finite list
of point atoms (L, S) plus piecewise-constant density pieces (a, b, rho),
which keeps every integral the model needs in closed form.  Each of them
is one of two integrals, vectorized over an array of alpha >= 0:

    prefix_integral: integral of y^p dmu over [0, alpha), p in {-1, 0, 1},
                     or over [0, alpha] with inclusive=True
    tail_integral:   integrals of kernels k(y; c0) dmu over the tail above
                     alpha, given kappa, which sets c0 = (1-kappa^2) alpha^2;
                     the two kernels are
                     OIL_VOLUME  y - sqrt(y^2 - c0)  over [alpha, inf)  (V_o)
                     OIL_RATE    1 / sqrt(y^2 - c0)  over (alpha, inf)  (V_o')
                     and one call takes a tuple of them, sharing the root

Atoms enter a prefix integral through prefix sums, which the Measure
builds in its constructor (and so rejects moments past the doubles
there), and a binary search.  A tail integral sums its atoms, whatever
their count, over a binary tree of the sorted alphas, with p = 20
Chebyshev points per node (_FAR_POINTS).  Each kernel's only singularity
in alpha lies at L / sqrt(1 - kappa^2), so a node whose alphas lie in
[a, b], of width w, separates at sqrt(1 - kappa^2) (b + w): an atom past
it is analytic over [a, b], with its singularity at least 3 half-widths
past the node's middle, inside the Bernstein ellipse of rho = 3 +
sqrt(8), where p points interpolate it to rounding (the bound is worked
out at _FAR_POINTS).  A node takes the atoms past both b and the
separation that its ancestors did not take, one slice of the sorted
atoms, as a far field, if there are at least p of them: it evaluates
each kernel on the slice at its p points, sums over the atoms and adds
the interpolant at its alphas.  A node whose smallest alpha lies at or
past the separation is cut, once it holds more than p alphas and p to
1637 remaining atoms: it evaluates them all at its p points and sums
them from the last atom down, and each alpha interpolates the running
sum of the atoms in its tail, so the tail's indicator is exact and the
node evaluates no direct cell.  Otherwise a node is a leaf once its
direct cells fit _TREE_CELLS = 2^15 or it holds at most 2p alphas, and
a leaf adds its remaining atoms directly.  Only the live (alpha, atom)
cells of a leaf are evaluated: the atoms are sorted by length, so those
below its smallest alpha, a column prefix, are skipped, and only the
columns up to its largest alpha need the tail mask.  Leaves, far fields
and cuts form their cells in one routine (_atom_cells) and add them
into one array: an atom cell leaves out the oil volume's factor c0,
which each row takes once after the tree, so V_o(0) is exactly 0; and
wherever an atom lies within about 1e-4 relative of an alpha or a
Chebyshev point and kappa^2 is below about 2e-4, its root is formed
from nonnegative parts (_NEAR_ROOT).  A call with both kernels takes
sqrt(y^2 - c0) once per live cell or point; each kernel writes into its
own buffer (the last over the root) and gets the bits of a call with
that kernel alone.  Each value is within about 1e-15 relative of the
direct sum, and no value depends on the block size or on the order of
the alphas.  At 4000 atoms and 2001 ascending alphas, kappa 0.5, the tree
evaluates 0.07 N M kernel cells, where a direct sum over the live cells
takes about half of them.  The cells are evaluated in place in
per-thread buffers kept from one call to the next, and no block-sized
array is allocated per call (a cut's interpolation chunk stays below
128 KiB).  A warm one-kernel call at 2001 alphas peaked at 0.23-0.24 MB
at 5-1e3 atoms and at 0.36 MB at 1e4 atoms (0.27-0.29 and 0.39 MB with
both kernels); a cold one, whose buffers are new, at 0.73-0.86 MB
(0.77-0.89 MB) (tracemalloc, MB of 2^20 bytes).  The
row-block rule, row_blocks, is the package's only one: the tree's
leaves with more atoms than alphas take it, the inverse
operator's cells are evaluated over it in the same per-thread buffers
(_block_buffers), and the tube simulation writes its blocks straight
into its result.  The inverse operator holds its off-diagonal part on
the same kind of tree, over its rows, with the same points and leaf size
and the same barycentric basis (_far_basis).
Pieces enter both integrals by their clipped limits, one bracket per
cell; a tail call takes each piece's root step (_root_step) once, for
all of its kernels.  Its roots are formed from nonnegative parts, with
no rounded c0 subtracted, so a cell keeps its digits however narrow and
however small kappa: against 60-digit values of the model (alpha and
kappa taken as exact, widths down to 1e-8 of the cell's start, kappa
1e-6 to 0.999), a rate cell is within 2.2e-16 relative and a volume
cell within 1.9e-12.

Interval conventions are half-open [a, b) throughout, so an atom sitting
exactly on a boundary is bucketed unambiguously.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError, overflow_guard

# Viscosity ratios are kept strictly away from 1 so that 1 - kappa stays
# bounded below; the displacement model degenerates as kappa -> 1.
KAPPA_MAX = 0.999

# The smallest admitted kappa.  V recovered at n_grid 2001 for the uniform
# piece [3, 9] (alpha_max 10, a 4001-sample curve) is within 4.8e-6 v_max
# of the truth from 1e-5 down to here, and stays there below it (4.8e-6 at
# kappa 3e-7 and 1e-8, 4.9e-6 at 1e-10); it grows to 2.1e-5 at 1e-12 and
# 2.5e-4 at 1e-13, and at 1e-15 the recovery fails (error ~v_max).
KAPPA_MIN = 1e-6

# The lengths whose square is a finite normal double: LENGTH_MIN <= L <
# LENGTH_MAX, about 1.5e-154 to 1.3e154.  Atom lengths and alpha_max lie
# there, and every alpha below LENGTH_MAX, so no L^2 or alpha^2 of the
# model overflows and no atom's L^2 underflows.
LENGTH_MIN, LENGTH_MAX = 2.0 ** -511, 2.0 ** 512
_LENGTH_RULE = (
    "must lie in [2**-511, 2**512), where a length's square is a finite normal double"
)

# Cells per row block of row_blocks: temporaries stay near 256 KB.
_BLOCK_CELLS = 1 << 15

# tail_integral sums the atoms over a tree of the limits.
# A kernel's only singularities in the limit x lie at x = +-L / sqrt(c),
# c = 1 - kappa^2, where the root sqrt(L^2 - c x^2) vanishes.  A node whose
# limits lie in [a, b], of width w, takes the atoms past max(b, sqrt(c)
# (b + w)) as a far field: each lies in every limit's tail, and its
# singularities lie at t >= 3 of the node's coordinate t in [-1, 1]
# (b + w is t = 3), so their sum is analytic inside the Bernstein
# ellipse through t = 3, rho = 3 + sqrt(8) = 5.83, and its interpolant in
# p Chebyshev points converges as rho^-p (Trefethen, Approximation Theory
# and Approximation Practice, Thm 8.2).  For one atom at the separation,
# whatever kappa, the interpolant of its rate kernel is within 8.9e-15 of
# the kernel's value at 18 points and 2.5e-16 at 20, that of its volume
# kernel without c0 within 5.4e-16 and 1.4e-17 (40-digit arithmetic, the
# worst over nodes [a, a + w]; past b the atom's singularity lies beyond
# t = 3).  The terms are positive, so a sum of atoms is within the worst
# atom's relative error: 20 points interpolate every far field to
# rounding.  sqrt(c) is formed as sqrt((1 - kappa)(1 + kappa)), as
# inverse._tree forms it.
_FAR_POINTS = 20
# the Chebyshev points of the second kind in [0, 1], ends included, and
# their barycentric weights
_FAR_NODES = np.sin(np.pi / (2 * (_FAR_POINTS - 1)) * np.arange(_FAR_POINTS)) ** 2
_FAR_WEIGHTS = (-1.0) ** np.arange(_FAR_POINTS) * np.r_[0.5, np.ones(_FAR_POINTS - 2), 0.5]

# The leaf rules of the tree, for a node whose remaining atoms, those its
# ancestors did not take, run from the first at or above its smallest
# limit.  A node is cut when its smallest limit lies at or past the
# separation, so that every remaining atom is analytic over its limits,
# it holds more than _FAR_POINTS limits and from _FAR_POINTS to
# _FAR_COLUMNS - 1 remaining atoms: it takes them all at its Chebyshev
# points and each limit reads its tail off their running sums
# (_cut_tails), _FAR_POINTS cells per atom where a direct sum takes one
# per limit; the cap keeps the sequential sums short (cut at the highest
# node that qualifies, with no cap, rows read 4.7e-15 from the dense sum)
# and each kernel's sums, behind a column of zeros, within one buffer.
# Otherwise a node is a leaf once its direct cells, its limits times its
# remaining atoms, fit in _TREE_CELLS, or once it holds at most
# _LEAF_LIMITS limits: a far field at _FAR_POINTS points would then save
# at most half of the cells it replaces.  And a node takes a far field
# only of at least _FAR_POINTS atoms, since its interpolant costs
# _FAR_POINTS terms per limit: fewer pass to its children.  A far field
# is summed over the atoms and interpolated to the limits in chunks of
# _FAR_COLUMNS.  All sizes are fixed apart from _BLOCK_CELLS, so no value
# follows the block size.
_TREE_CELLS = 1 << 15
_LEAF_LIMITS = 2 * _FAR_POINTS
_FAR_COLUMNS = _TREE_CELLS // _FAR_POINTS
# A cut interpolates its running sums to its limits in chunks of
# _CUT_LIMITS, whose basis and product, 2 _FAR_POINTS _CUT_LIMITS doubles,
# are allocated below 128 KiB, glibc's least mmap threshold: the sums fill
# the tree's buffers, and no cut grows them.
_CUT_LIMITS = _FAR_COLUMNS // 4

# An atom cell of the tree forms the atom's root sqrt(L^2 - c0) as L^2 - c0
# unless the atom lies within L = lo (1 + theta) of its limit or Chebyshev
# point lo with 2 theta + kappa^2 below _NEAR_ROOT.  The cancellation in
# L^2 - c0 costs about eps / (2 theta + kappa^2) of the root's relative
# digits (1.5e-4 for an atom an ulp above its limit at kappa 1e-6), so past
# _NEAR_ROOT = eps / 1e-12 it costs at most 1e-12; below it the root is
# formed from its nonnegative parts, as _root_step forms a piece's.
_NEAR_ROOT = np.finfo(float).eps / 1e-12

_BLOCK_WORK = threading.local()   # this thread's row-block buffers


def row_blocks(n_rows, n_cols):
    """Row slices over 0..n_rows-1 of at most _BLOCK_CELLS cells (>= 1 row)."""
    step = max(1, _BLOCK_CELLS // n_cols)
    for r in range(0, n_rows, step):
        yield slice(r, min(r + step, n_rows))


def check_number(name, value):
    """Refuse a bool or a non-number as name, returning a number as float:
    Python's bool is an int, and None or a string would raise TypeError
    when compared, or be parsed by float()."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ArgumentError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_kappa(kappa):
    """Validate a water/oil viscosity ratio, returning it as float."""
    kappa = check_number("kappa", kappa)
    if not KAPPA_MIN <= kappa <= KAPPA_MAX:
        raise ArgumentError(
            f"viscosity ratio must lie in [{KAPPA_MIN}, {KAPPA_MAX}], got {kappa}"
        )
    return kappa


def check_count(name, value, minimum):
    """Validate an integer argument >= minimum: a count (samples, grid nodes,
    trials) or a seed.  A bool is not one, though Python's bool is an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Measure:
    """Finite measure on (0, inf): point atoms plus constant-density pieces.

    atoms:  tuple of (L, S), LENGTH_MIN <= L < LENGTH_MAX, S > 0
    pieces: tuple of (a, b, rho), 0 < a < b normal doubles, rho >= 0

    The constructor builds all of its state (atoms sorted by length, prefix
    sums of S L^p, support_sup) and raises ArgumentError there on a moment
    past the doubles, of an atom, a piece or the whole measure, on an L
    whose square is not a finite normal double or on a subnormal a.
    Immutable; all operations on it are pure.
    """

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(L), float(S)) for L, S in self.atoms)
        pieces = tuple((float(a), float(b), float(r)) for a, b, r in self.pieces)
        flat = np.fromiter(itertools.chain.from_iterable(atoms), float, 2 * len(atoms))
        L, S = flat.reshape(-1, 2).T
        ok = (LENGTH_MIN <= L) & (L < LENGTH_MAX) & (S > 0.0) & (S < math.inf)
        if not ok.all():
            # the first bad atom raises, on its length before its section
            L0, S0 = atoms[int(ok.argmin())]
            if not LENGTH_MIN <= L0 < LENGTH_MAX:
                raise ArgumentError(f"atom length {_LENGTH_RULE}, got {L0}")
            raise ArgumentError(f"atom section must be finite and > 0, got {S0}")
        for a, b, r in pieces:
            if not sys.float_info.min <= a < b < math.inf:
                raise ArgumentError(
                    f"piece needs normal doubles 0 < a < b < inf, got [{a}, {b})"
                )
            if not (r >= 0 and math.isfinite(r)):
                raise ArgumentError(f"piece density must be finite and >= 0, got {r}")
        L, S, sums = atom_prefix_sums(L, S)
        if pieces:
            # each piece's moments, and the whole measure's, raise here if
            # past the doubles; every prefix integral stays below them
            with overflow_guard("a moment of the measure"):
                a, b, rho = np.array(pieces).T
                for p, row in zip((-1, 0, 1), sums):
                    row[-1] + np.sum(rho * _PIECE_PREFIX[p](b, a))
        # supremum of the support; 0.0 for the zero measure
        tops = L[-1:].tolist() + [b for _, b, _ in pieces]
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_atoms_by_length", (L, S))
        object.__setattr__(self, "_prefix", dict(zip((-1, 0, 1), sums)))
        object.__setattr__(self, "support_sup", max(tops, default=0.0))


def atom_prefix_sums(L, S):
    """Atoms (L[i], S[i]) sorted by length, and their prefix sums of S L^p.

    Returns (L, S, sums): sums[k] holds 0 and then the running sums of
    S L^(k-1), k = 0, 1, 2, so sums[:, -1] are the atoms' three moments.
    The sort is stable and each sum one sequential np.add.accumulate (the
    loop of np.cumsum, without its Python-level dispatch, which costs more
    than the sum at tens of atoms), so a Measure and a caller that only
    wants the moments of raw draws get the same bits.  A sum past the
    doubles raises ArgumentError.
    """
    order = L.argsort(kind="stable")
    L, S = L[order], S[order]
    sums = np.zeros((3, L.size + 1))
    with overflow_guard("a moment of the measure"):
        for row, terms in zip(sums, (S / L, S, S * L)):
            np.add.accumulate(terms, out=row[1:])
    return L, S, sums


def _alpha_array(alphas):
    """alphas as a float array, each in [0, LENGTH_MAX): the one check on
    alpha arrays, so that alpha^2 stays a finite double."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size and not (alphas.min() >= 0.0 and alphas.max() < LENGTH_MAX):
        raise ArgumentError("alpha must lie in [0, 2**512)")
    return alphas


# integral of y^p dy over [a, hi), per unit density
_PIECE_PREFIX = {
    -1: lambda hi, a: np.log1p((hi - a) / a),
    0: lambda hi, a: hi - a,
    1: lambda hi, a: (hi * hi - a * a) / 2.0,
}


def prefix_integral(mu, p, alphas, inclusive=False):
    """Integral of y^p dmu(y) over [0, alpha) for each alpha, p in {-1, 0, 1}.

    inclusive=True integrates over [0, alpha] instead, so an atom at
    L = alpha counts (the right limit taken by the derivatives).
    """
    return _prefix_integral(mu, p, _alpha_array(alphas), inclusive)


def _prefix_integral(mu, p, alphas, inclusive=False):
    """prefix_integral on an array already known to be finite and >= 0.

    moment checks its two scalar ends itself and calls this directly: the
    array check would otherwise be a large share of a scalar call.
    """
    if p not in _PIECE_PREFIX:
        raise ArgumentError(f"moment exponent must be -1, 0 or 1, got {p}")
    out = np.zeros_like(alphas)
    for pa, pb, rho in mu.pieces:
        out += rho * _PIECE_PREFIX[p](np.clip(alphas, pa, pb), pa)
    side = "right" if inclusive else "left"
    L = mu._atoms_by_length[0]
    return out + mu._prefix[p][np.searchsorted(L, alphas, side=side)]


class TailKernel(NamedTuple):
    """Integrand k(y; c0) of a tail integral, defined for y^2 >= c0 >= 0.

    atom(w, y, s, out) writes an atom's cell into out, given its weight w
    and root s = sqrt(y^2 - c0), and leaves s alone unless out is s: w
    k(y; c0) for an unscaled kernel, and w k(y; c0) / c0 for a scaled one;
    scaled says that a kernel's atom tail is c0 times the sum of its atom
    cells, which every cell of tail_integral's tree leaves out, leaf, far
    field or cut alike, so each row takes c0 once, after the tree, and a
    tail at lower = 0 is exactly 0.  For the oil volume that cell is w /
    (y + s), which stays away from 0 as c0 goes to 0.  An atom whose w /
    (y + s) falls below the normal doubles (w / y under about 2.2e-308)
    loses its digits there and adds 0 below the subnormals, however large
    c0 is, as its term w / y of the measure's moment of order -1 does.
    cell(step, c0) integrates k over [lo, hi], given the root step
    (r_lo, r_hi, u) = _root_step(lo, hi, lower, kappa), which the kernels
    of a call share; it is exactly 0 on an empty cell lo == hi for any
    lower, which is how a piece outside the tail adds nothing; closed
    says whether an atom exactly at the lower limit lies in the tail.
    """

    atom: Callable
    cell: Callable
    closed: bool
    scaled: bool


def _root_step(lo, hi, lower, kappa):
    """r_lo, r_hi and u = r_hi / r_lo - 1, for r = y + sqrt(y^2 - c0).

    c0 = (1-kappa^2) lower^2, and ln r is the antiderivative of
    1/sqrt(y^2 - c0), so ln(r_hi / r_lo) is log1p(u).  Each root
    s = sqrt(y^2 - c0) is formed from its parts, (y - lower)(y + lower) +
    (kappa lower)^2, both >= 0 for y >= lower: no rounded c0 is
    subtracted, so s is within a few ulps of the model's root however
    small kappa is; it is taken as 0 where that sum is negative.
    r_hi - r_lo is (hi - lo)(1 + (hi + lo) / (s_hi + s_lo)), since s_hi -
    s_lo = (hi^2 - lo^2) / (s_hi + s_lo): a sum of positive terms, with
    no cancellation however narrow the cell.  Where both roots are 0, the
    sum of roots is taken as 1: on an empty cell any finite step gives
    u = 0, for any lower, and on a cell whose squares are below the doubles,
    where r is y, the step is (hi - lo)(1 + hi + lo), which is hi - lo.
    """
    k2 = (kappa * lower) ** 2
    s_lo, s_hi = (
        np.sqrt(np.maximum((y - lower) * (y + lower) + k2, 0.0)) for y in (lo, hi)
    )
    roots = s_lo + s_hi
    q = (hi + lo) / np.where(roots > 0.0, roots, 1.0)
    r_lo = lo + s_lo
    return r_lo, hi + s_hi, (hi - lo) * (1.0 + q) / r_lo


def _oil_volume_cell(step, c0):
    """Integral of y - sqrt(y^2 - c0) over [lo, hi], for lo^2 >= c0 >= 0,
    given step = (r_lo, r_hi, u) = _root_step(lo, hi, lower, kappa).

    The bracket of the antiderivative c0/2 (y / r + ln r), the stable form
    of y^2/2 - [y sqrt(y^2 - c0) - c0 ln r]/2.
    Since y / r = 1/2 + c0 / (2 r^2), hi / r_hi - lo / r_lo is
    -c0 (r_hi - r_lo)(r_hi + r_lo) / (2 r_hi^2 r_lo^2), taken as the
    product of c0 / (r_hi r_lo) <= 1, u and (r_hi + r_lo) / (2 r_hi) < 1:
    no term cancels on a narrow cell or overflows, and an empty cell
    gives exactly 0.
    """
    r_lo, r_hi, u = step
    steps = c0 / r_hi / r_lo * u * ((r_hi + r_lo) / (2.0 * r_hi))
    return 0.5 * c0 * (np.log1p(u) - steps)


OIL_VOLUME = TailKernel(
    # w / (y + s): w (y - s) / c0 in its stable form, at most w / y
    atom=lambda w, y, s, out: np.divide(w, np.add(y, s, out=out), out=out),
    cell=_oil_volume_cell,
    closed=True,
    scaled=True,
)

OIL_RATE = TailKernel(
    atom=lambda w, y, s, out: np.divide(w, s, out=out),
    cell=lambda step, c0: np.log1p(step[2]),
    closed=False,
    scaled=False,
)


def _block_buffers(rows, cols, count=1):
    """count (rows, cols) views on this thread's buffers, kept between calls.

    The buffers only grow, so tail_integral and the operator's cells
    share them without reallocating.  Nothing read from them carries
    over: each block writes every cell it reads.
    """
    cells = rows * cols
    work = getattr(_BLOCK_WORK, "buffers", np.empty((0, 0)))
    if work.shape[0] < count or work.shape[1] < cells:
        shape = (max(count, work.shape[0]), max(cells, work.shape[1]))
        work = _BLOCK_WORK.buffers = np.empty(shape)
    return work[:count, :cells].reshape(count, rows, cols)


def _atom_cells(kernels, targets, L, S, L2, lo, c, j1, kappa):
    """Write each kernel's cells of the atoms (L, S) at the limits lo.

    Leaves, far fields and cuts form every atom cell of the tree here;
    a far field's or a cut's limits are its Chebyshev points.  targets
    holds one (limit, atom) view per kernel; the last takes the root
    sqrt(L2 - c) first, L2 = L^2 a row and c = c0 at lo a column, lo
    sorted ascending.  Where an atom lies within L = lo (1 + theta) of a
    limit, with 2 theta + kappa^2 < _NEAR_ROOT, the root is formed
    instead from its parts, (L - lo)(L + lo) + (kappa lo)^2: with no
    kappa that small, no cell is.  Each cell is TailKernel.atom's,
    without c0, which a scaled kernel's row takes once.  Only the first j1
    atoms may lie outside a limit's tail: their roots are masked to 1
    there, and each kernel zeroes its own outside cells.  Each mask is
    made empty_like its view, so it iterates like the view.  A far field
    or a cut passes j1 = 0, since it applies no tail there (its atoms are
    analytic over its points), and then no mask is made.
    """
    s = targets[-1]
    np.subtract(L2, c, out=s)
    if kappa * kappa < _NEAR_ROOT:
        # atom j is near the limits lo[first[j]:last[j]], L[j] / reach <
        # lo <= L[j]; the cells below it are masked below
        reach = 1.0 + (_NEAR_ROOT - kappa * kappa) / 2.0
        col = lo.ravel()
        first, last = col.searchsorted(L / reach, "right"), col.searchsorted(L, "right")
        count = last - first
        atoms = np.repeat(np.arange(L.size), count)
        rows = np.arange(atoms.size) + np.repeat(first - count.cumsum() + count, count)
        y, x = L[atoms], col[rows]
        s[rows, atoms] = (y - x) * (y + x) + (kappa * x) ** 2
    outside = []
    if j1:
        edge = L[:j1]
        below = np.less(edge, lo, out=np.empty_like(s[:, :j1], bool))
        np.copyto(s[:, :j1], 1.0, where=below)
        outside = [below if kernel.closed else np.less_equal(
            edge, lo, out=np.empty_like(below)) for kernel in kernels]
    np.sqrt(s, out=s)
    for kernel, t in zip(kernels, targets):
        kernel.atom(S, L, s, t)
    for mask, t in zip(outside, targets):
        np.copyto(t[:, :j1], 0.0, where=mask)


def _leaf_tails(kernels, L, S, L2, lo, c, j1, kappa, out):
    """Add the cells of the atoms (L, S) at the limits lo to out, a row of
    each over all of the atoms; the atoms from j1 on lie in every tail.

    The longer axis of the leaf runs inner.  With no more atoms than
    limits, the cells are an (atom, limit) tile per kernel, a single one
    (the tree's leaf rule keeps it within _TREE_CELLS cells), whose atom
    rows np.add.reduce adds in turn; otherwise they are (limit, atom)
    rows, taken over row_blocks, each summed by np.add.reduce in its
    pairwise order.  Either way a row's sum does not depend on how many
    rows share a block.
    """
    width = L.size
    if width <= lo.size:
        tiles = _block_buffers(width, lo.size, len(kernels))
        _atom_cells(kernels, [t.T for t in tiles], L, S, L2, lo[:, None], c[:, None], j1, kappa)
        for tile, o in zip(tiles, out):
            o += np.add.reduce(tile, axis=0)
        return
    bufs = _block_buffers(min(lo.size, max(1, _BLOCK_CELLS // width)), width, len(kernels))
    for rows in row_blocks(lo.size, width):
        targets = [buf[: rows.stop - rows.start] for buf in bufs]
        _atom_cells(kernels, targets, L, S, L2, lo[rows, None], c[rows, None], j1, kappa)
        for t, o in zip(targets, out):
            o[rows] += np.add.reduce(t, axis=1)


def _far_sums(kernels, L, S, L2, x, c, kappa):
    """Each kernel's sums over the atoms (L, S) at the points x, all below
    the atoms, whose c0 is c (columns, from _far_c0): _atom_cells' cells
    in chunks of _FAR_COLUMNS atoms."""
    sums = np.zeros((len(kernels), x.size))
    for j in range(0, L.size, _FAR_COLUMNS):
        cols = slice(j, j + _FAR_COLUMNS)
        tiles = _block_buffers(x.size, L[cols].size, len(kernels))
        _atom_cells(kernels, tiles, L[cols], S[cols], L2[cols], x, c, 0, kappa)
        for t, o in zip(tiles, sums):
            o += np.add.reduce(t, axis=1)
    return sums


def _cut_tails(kernels, L, S, L2, x, c, kappa, lo, out):
    """Add the tails of the atoms (L, S), sorted by length and each
    analytic over the limits lo, to out, from running sums.

    x are the _FAR_POINTS Chebyshev points of the limits and c their c0
    (columns, from _far_c0).  Each kernel's cells of every atom there
    (_atom_cells, on the atoms in reverse) are summed from the last atom
    down by one np.add.accumulate, behind a column of zeros, so column k
    holds the sum of the last k atoms.  A limit takes the column of the
    atoms in its tail, those from L.searchsorted(limit, "left") on for a
    closed kernel and "right" for an open one, and interpolates it to
    itself by _far_basis, over chunks of _CUT_LIMITS limits: the tail's
    indicator is applied to the sums and never interpolated.  Each
    kernel's sums fill at most one of _block_buffers' rows (the tree cuts
    at most _FAR_COLUMNS - 1 atoms), so a cut with one or both kernels
    fits the tree's two buffers.
    """
    n = L.size
    t = _far_coordinate(lo)
    sums = _block_buffers(_FAR_POINTS, n + 1, len(kernels))
    _atom_cells(kernels, sums[:, :, 1:], L[::-1], S[::-1], L2[::-1], x, c, 0, kappa)
    for s in sums:
        s[:, 0] = 0.0
        np.add.accumulate(s, axis=1, out=s)
    chunks = np.empty((2, _FAR_POINTS, min(lo.size, _CUT_LIMITS)))
    for r in range(0, lo.size, _CUT_LIMITS):
        rows = slice(r, r + _CUT_LIMITS)
        basis, term = chunks[:, :, : t[rows].size]
        _far_basis(t[rows], basis)
        for kernel, s, o in zip(kernels, sums, out):
            side = "left" if kernel.closed else "right"
            np.take(s, n - L.searchsorted(lo[rows], side), axis=1, out=term, mode="clip")
            term *= basis
            o[rows] += np.add.reduce(term, axis=0)


def _far_basis(t, out):
    """The barycentric basis of the _FAR_POINTS Chebyshev points
    _FAR_NODES at each t in [0, 1], written into out, (_FAR_POINTS,
    t.size): out.T @ values interpolates values at the points to t.

    Each difference t - t_k gains 2^-1000, which changes none but those
    within about 1e-284 of 0: there, at t = 0 or on a node, node k's
    weight outweighs every other one past rounding, and none overflows;
    the weights are scaled to sum to 1 before they meet the values.  The
    far fields of the atom tails and of the inverse operator both
    interpolate with it.
    """
    np.subtract(t, _FAR_NODES[:, None], out=out)
    out += 2.0 ** -1000
    np.divide(_FAR_WEIGHTS[:, None], out, out=out)
    out /= np.add.reduce(out, axis=0)
    return out


def _far_c0(kappa, a, w):
    """The Chebyshev points x = a + w _FAR_NODES of the limits [a, a + w]
    and their c0 = (1-kappa^2) x^2, as columns: (x, c0)."""
    x = (a + w * _FAR_NODES)[:, None]
    return x, (1.0 - kappa * kappa) * x * x


def _far_coordinate(lo):
    """t = (lo - a) / w in [0, 1] of the sorted limits lo in [a, b] =
    [lo[0], lo[-1]], of width w; 0 where w = 0, where every limit is a."""
    a, w = lo[0], lo[-1] - lo[0]
    return (lo - a) / w if w > 0.0 else np.zeros(lo.size)


def _far_values(lo, values, out):
    """Add a far field at the limits lo to out.

    The limits lie in [a, b] = [lo[0], lo[-1]], of width w, and values
    holds each kernel's sums at the _FAR_POINTS Chebyshev points
    a + w _FAR_NODES.  Each is interpolated to the limits by _far_basis,
    at their _far_coordinate, over chunks of _FAR_COLUMNS limits.
    """
    t = _far_coordinate(lo)
    for r in range(0, lo.size, _FAR_COLUMNS):
        rows = slice(r, r + _FAR_COLUMNS)
        basis, term = _block_buffers(_FAR_POINTS, t[rows].size, 2)
        _far_basis(t[rows], basis)
        for v, o in zip(values, out):
            np.multiply(basis, v[:, None], out=term)
            o[rows] += np.add.reduce(term, axis=0)


def _tree_tails(kernels, L, S, kappa, lower, c0, outs):
    """Add the atom tails of the atoms (L, S), sorted by length, to outs.

    The limits are sorted once and split in halves, by index, down to the
    leaves of the rules at _TREE_CELLS.  A node whose limits lie in [a,
    b], of width w, and whose ancestors took the atoms from top on,
    separates at e = sqrt(c) (b + w), c = 1 - kappa^2: past e an atom is
    analytic over [a, b] (see _FAR_POINTS).  With a >= e it is cut
    (_cut_tails): every limit reads its remaining atoms, from the first at
    or above a, off running sums at the node's Chebyshev points.  A leaf
    adds its remaining atoms directly (_leaf_tails).  A node that is split
    takes the atoms past max(b, e) up to top as a far field, if there are
    at least _FAR_POINTS of them: it sums each kernel over them at its
    Chebyshev points (_far_sums) and adds their interpolant at its limits
    (_far_values).  All of them add into one array of the sorted rows, so
    a row's value is its far fields, root first, plus its leaf's sum or
    its cut, times c0 for a scaled kernel, all fixed by the sorted limits
    and the atoms.
    """
    # every block of the tree fits two buffers of _TREE_CELLS cells: take
    # them at once, so that a thread's buffers are allocated at their full
    # size and not grown block by block (a growth frees the old buffer,
    # which moves glibc's thresholds and with them where later large arrays
    # land, and so the process's peak RSS)
    _block_buffers(1, _TREE_CELLS, 2)
    order = lower.argsort(kind="stable")
    lo, c = lower[order], c0[order]
    sums = np.zeros_like(outs)
    L2 = L * L
    sc = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    nodes = [(0, lo.size, L.size)]   # rows r0:r1, whose ancestors took the atoms from top on
    while nodes:
        r0, r1, top = nodes.pop()
        rows = slice(r0, r1)
        a, b = lo[r0], lo[r1 - 1]
        w = b - a
        e = sc * (b + w)
        j0 = int(L.searchsorted(a, "left"))
        if r1 - r0 > _FAR_POINTS and a >= e and _FAR_POINTS <= top - j0 < _FAR_COLUMNS:
            atoms = slice(j0, top)
            _cut_tails(kernels, L[atoms], S[atoms], L2[atoms], *_far_c0(kappa, a, w), kappa,
                       lo[rows], sums[:, rows])
            continue
        if r1 - r0 <= _LEAF_LIMITS or (r1 - r0) * (top - j0) <= _TREE_CELLS:
            if j0 < top:
                atoms = slice(j0, top)
                _leaf_tails(
                    kernels, L[atoms], S[atoms], L2[atoms], lo[rows], c[rows],
                    int(L.searchsorted(b, "right")) - j0, kappa, sums[:, rows],
                )
            continue
        j = min(int(L.searchsorted(max(b, e), "right")), top)
        if top - j >= _FAR_POINTS:
            atoms = slice(j, top)
            far = _far_sums(kernels, L[atoms], S[atoms], L2[atoms], *_far_c0(kappa, a, w), kappa)
            _far_values(lo[rows], far, sums[:, rows])
            top = j
        mid = (r0 + r1) // 2
        nodes += [(mid, r1, top), (r0, mid, top)]
    for kernel, o in zip(kernels, sums):
        if kernel.scaled:
            o *= c
    outs[:, order] = sums


def tail_integral(mu, kernels, kappa, lower):
    """Integrals of each kernel(y; c0) dmu(y) over the tail above lower.

    kernels is a tuple of TailKernels, and the result a list of one array
    per kernel, all from one pass over the atoms.  kappa must pass
    check_kappa and sets c0 = (1-kappa^2) lower^2, so the root
    sqrt(y^2 - c0) of an atom in the tail is at least about kappa lower
    (while lower^2 is a normal double); the tail is [lower, inf) for a
    closed kernel and (lower, inf) otherwise.  Each result has the shape
    of lower.

    The atoms are summed over a tree of the sorted limits (_tree_tails).
    A node separates at sqrt(1 - kappa^2) times its largest limit plus
    its width, past which an atom's kernels are analytic over its limits
    (their branch point lies at L / sqrt(1 - kappa^2)), and a fixed
    number of Chebyshev points interpolates a sum of such atoms to
    rounding (see _FAR_POINTS).  A node takes the atoms past the
    separation and its limits as a far field, if there are at least
    _FAR_POINTS of them; a node whose limits all lie past the separation
    is cut: each limit interpolates the running sum of the atoms in its
    tail at the node's points (_cut_tails).  So each row is within about
    1e-15 relative of the direct sum, whose order it gives up.  A value
    depends neither on the block size nor on the order of lower, and
    only the live cells of a leaf are evaluated: the atoms are sorted, so
    those below a leaf's smallest limit, a column prefix, lie outside
    every tail on every row of it, and only those up to the last atom at
    its largest limit need the tail masks.

    Leaves, far fields and cuts form their atom cells in one routine
    (_atom_cells), with the near-atom root of _NEAR_ROOT, and without a
    scaled kernel's c0, which each row takes once, after the tree and
    before the pieces.  The kernels share the root of each block, masked
    to 1 below the limits.  Each kernel but the last writes into its own
    buffer and the last over the root, and each zeroes its own outside
    cells, so every cell and every row sum goes through the operations
    of a call with that kernel alone and gets its bits.  A density piece
    adds, per limit, each kernel's cell over the limit clipped to the
    piece, all from one _root_step per piece.  Each block is computed in
    place in _block_buffers: with fresh 256 KB temporaries per step,
    glibc trimmed the heap top after a block and faulted it back in for
    the next, so the time of a sensitivity trial followed the host's
    page-fault cost.
    """
    kappa = check_kappa(kappa)
    lower = _alpha_array(lower)
    shape = lower.shape
    lower = lower.ravel()
    c0 = (1.0 - kappa * kappa) * lower * lower
    outs = np.zeros((len(kernels), lower.size))
    if mu.atoms and lower.size:
        _tree_tails(kernels, *mu._atoms_by_length, kappa, lower, c0, outs)
    for pa, pb, rho in mu.pieces:
        step = _root_step(np.clip(lower, pa, pb), pb, lower, kappa)
        for kernel, out in zip(kernels, outs):
            out += rho * kernel.cell(step, c0)
    return [out.reshape(shape) for out in outs]


def moment(mu, p, a=0.0, b=math.inf):
    """Integral of y^p dmu(y) over [a, b) for p in {-1, 0, 1}.

    The difference of two prefix integrals: an atom at L counts iff
    a <= L < b; density pieces are integrated in closed form.
    """
    if not 0 <= a <= b:
        raise ArgumentError(f"need 0 <= a <= b, got [{a}, {b})")
    lo, hi = _prefix_integral(mu, p, np.array([a, b], dtype=float))
    return float(hi - lo)


def scale(mu, k):
    """Rescaled measure mu'(A) = k * mu(k A): the scaling non-uniqueness map.

    Atoms (L, S) -> (L/k, k S); pieces (a, b, rho) -> (a/k, b/k, k^2 rho).
    Pore volume (the first moment) is invariant; total mass gains a factor k.
    """
    if not k > 0:
        raise ArgumentError(f"scale factor must be > 0, got {k}")
    k = float(k)
    return Measure(
        atoms=tuple((L / k, k * S) for L, S in mu.atoms),
        pieces=tuple((a / k, b / k, k * k * r) for a, b, r in mu.pieces),
    )


def check_range(name, bounds):
    """Validate a sampling range (lo, hi): normal doubles with 0 < lo < hi < inf.

    Every uniform draw from it then lies in [lo, hi], a valid atom length
    or section.  Returns the bounds as floats.
    """
    lo, hi = (float(b) for b in bounds)
    if not sys.float_info.min <= lo < hi < math.inf:
        raise ArgumentError(
            f"{name} must be normal doubles 0 < lo < hi < inf, got {tuple(bounds)}"
        )
    return lo, hi


def check_length_range(name, bounds):
    """check_range for atom lengths, whose lower end must also be at least
    LENGTH_MIN and upper end below LENGTH_MAX: every draw is then a valid
    atom length."""
    lo, hi = check_range(name, bounds)
    if not (LENGTH_MIN <= lo and hi < LENGTH_MAX):
        raise ArgumentError(f"{name} {_LENGTH_RULE}, got {tuple(bounds)}")
    return lo, hi


def draw_atoms(rng, n, L_range, S_range):
    """n lengths uniform in L_range, then n sections uniform in S_range.

    The one draw order of random atoms, from the Generator rng; the ranges
    must have passed check_length_range and check_range.  Returns the
    arrays (L, S).
    """
    return rng.uniform(*L_range, n), rng.uniform(*S_range, n)


def atoms_measure(L, S):
    """The Measure of the atoms (L[i], S[i]) of two float arrays."""
    return Measure(atoms=tuple(zip(L.tolist(), S.tolist())))


def random_atoms(seed, n, L_range=(2.5, 10.0), S_range=(0.5, 2.0)):
    """n random atoms with L uniform in L_range and S uniform in S_range.

    Deterministic given the seed; ``seed`` may also be a Generator, in which
    case its stream is consumed in place.  L_range must pass
    check_length_range and S_range check_range.
    """
    check_count("n", n, 1)
    L_range = check_length_range("L_range", L_range)
    S_range = check_range("S_range", S_range)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return atoms_measure(*draw_atoms(rng, n, L_range, S_range))
