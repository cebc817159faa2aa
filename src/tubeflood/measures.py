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
there), and a binary search.  A tail integral runs over row blocks of
alpha holding at most _BLOCK_CELLS cells (or one row), in place in
per-thread buffers kept from one call to the next: memory stays near
0.5 MB below 2^15 atoms (0.75 MB with both kernels), and no block-sized
array is allocated per call.  Only the live (alpha, atom) cells of a
block are evaluated: the atoms are sorted by length, so those below the
block's smallest alpha, a column prefix, are skipped, and only the
columns up to its largest alpha need the tail mask.  A call with both
kernels takes sqrt(y^2 - c0) once per live cell; each kernel writes
into its own buffer (the last over the root) and gets the bits of a
call with that kernel alone.  That row-block rule,
row_blocks, is the package's only one: the operator's cells are
evaluated over it too, in the same per-thread buffers (_block_buffers),
and the tube simulation writes its blocks straight into its result.
Pieces enter both integrals by their clipped limits, one bracket per cell.

Interval conventions are half-open [a, b) throughout, so an atom sitting
exactly on a boundary is bucketed unambiguously.
"""

from __future__ import annotations

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

# Small kappa costs digits: 1 - kappa^2 keeps kappa only in its last bits.
# Down to 1e-6, V recovered at n_grid 2001 stays within 5e-6 v_max of the
# truth for a uniform piece; below, the error turns erratic (2e-4 v_max at
# kappa 3e-7, 5e-2 at 1e-8), and from about 1e-9 on 1 - kappa^2 rounds to 1
# and the closed forms divide by zero.
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

_BLOCK_WORK = threading.local()   # this thread's row-block buffers


def row_blocks(n_rows, n_cols):
    """Row slices over 0..n_rows-1 of at most _BLOCK_CELLS cells (>= 1 row)."""
    step = max(1, _BLOCK_CELLS // n_cols)
    for r in range(0, n_rows, step):
        yield slice(r, min(r + step, n_rows))


def check_kappa(kappa):
    """Validate a water/oil viscosity ratio, returning it as float."""
    kappa = float(kappa)
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
        for L, S in atoms:
            if not LENGTH_MIN <= L < LENGTH_MAX:
                raise ArgumentError(f"atom length {_LENGTH_RULE}, got {L}")
            if not (S > 0 and math.isfinite(S)):
                raise ArgumentError(f"atom section must be finite and > 0, got {S}")
        for a, b, r in pieces:
            if not sys.float_info.min <= a < b < math.inf:
                raise ArgumentError(
                    f"piece needs normal doubles 0 < a < b < inf, got [{a}, {b})"
                )
            if not (r >= 0 and math.isfinite(r)):
                raise ArgumentError(f"piece density must be finite and >= 0, got {r}")
        L, S, sums = atom_prefix_sums(
            np.array([a[0] for a in atoms], dtype=float),
            np.array([a[1] for a in atoms], dtype=float),
        )
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
    -1: lambda hi, a: np.log(hi / a),
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

    atom(w, y, s, c0, out) writes w k(y; c0) into out, given the root
    s = sqrt(y^2 - c0), and leaves s alone unless out is s;
    cell(lo, hi, c0) integrates k over [lo, hi], and is exactly 0 on an
    empty cell lo == hi for any finite c0 >= 0, which is how a piece
    outside the tail adds nothing; closed says whether an atom exactly at
    the lower limit lies in the tail.
    """

    atom: Callable
    cell: Callable
    closed: bool


def _log_root(y, c0):
    """y + sqrt(y^2 - c0), whose log is the antiderivative of 1/sqrt(y^2 - c0)."""
    return y + np.sqrt(np.maximum(y * y - c0, 0.0))


def _oil_volume_cell(lo, hi, c0):
    """Integral of y - sqrt(y^2 - c0) over [lo, hi], for lo^2 >= c0 >= 0.

    The bracket of the antiderivative c0/2 (y / r + ln r), r = _log_root,
    the stable form of y^2/2 - [y sqrt(y^2 - c0) - c0 ln r]/2.  Its y / r
    terms lie in (1/2, 1] and its logs are taken as one, ln(r_hi / r_lo),
    so nothing in the bracket overflows, and lo == hi gives exactly 0.
    """
    r_lo, r_hi = _log_root(lo, c0), _log_root(hi, c0)
    return 0.5 * c0 * (hi / r_hi - lo / r_lo + np.log(r_hi / r_lo))


OIL_VOLUME = TailKernel(
    # w (c0 / (y + s)), the stable form of w (y - s); c0 / (y + s) <= y,
    # so no product exceeds w y even where w c0 would overflow
    atom=lambda w, y, s, c0, out: np.multiply(
        w, np.divide(c0, np.add(y, s, out=out), out=out), out=out
    ),
    cell=_oil_volume_cell,
    closed=True,
)

OIL_RATE = TailKernel(
    atom=lambda w, y, s, c0, out: np.divide(w, s, out=out),
    cell=lambda lo, hi, c0: np.log(_log_root(hi, c0) / _log_root(lo, c0)),
    closed=False,
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


def _leading(buf, rows, cols):
    """A contiguous (rows, cols) array on the first cells of buf."""
    return buf.ravel()[: rows * cols].reshape(rows, cols)


def tail_integral(mu, kernels, kappa, lower):
    """Integrals of each kernel(y; c0) dmu(y) over the tail above lower.

    kernels is a tuple of TailKernels, and the result a list of one array
    per kernel, all from one pass over the atoms.  kappa must pass
    check_kappa and sets c0 = (1-kappa^2) lower^2, so the root
    sqrt(y^2 - c0) of an atom in the tail is at least about kappa lower
    (while lower^2 is a normal double); the tail is [lower, inf) for a
    closed kernel and (lower, inf) otherwise.  Each result has the shape
    of lower.  Atom cells are summed over row_blocks, each row over all
    atoms in length order (the ones outside the tail add 0), so the value
    does not depend on the block size.  Only the live cells are
    evaluated: the atoms are sorted, so the atoms below a block's smallest
    lower limit, a column prefix, lie outside every tail on every row of
    it and are left at 0, and only the columns up to the last atom at its
    largest limit need the tail masks.  Both column bounds of every block
    come from one searchsorted over all limits before the loop.  Ascending
    limits therefore cost about the cells in the tail; unsorted ones give
    the same values and save less.  The live columns are evaluated in one
    contiguous buffer (on a strided view of the row, each ufunc ran one
    inner loop per row, 20% slower at 30-50 atoms) and then copied behind
    the zeroed prefix, so every row is still summed whole, in the order of
    the dense sum.

    The kernels share the root of each block, masked to 1 below the
    limits.  Each kernel but the last writes into its own buffer and the
    last over the root, and each zeroes its own outside cells, so every
    cell and every row sum goes through the operations of a call with
    that kernel alone and gets its bits.  Each block is computed in place
    in _block_buffers: with fresh 256 KB temporaries per step, glibc
    trimmed the heap top after a block and faulted it back in for the
    next, so the time of a sensitivity trial followed the host's
    page-fault cost.
    """
    kappa = check_kappa(kappa)
    lower = _alpha_array(lower)
    shape = lower.shape
    lower = lower.ravel()
    c0 = (1.0 - kappa * kappa) * lower * lower
    outs = [np.zeros_like(lower) for _ in kernels]
    if mu.atoms and lower.size:
        L, S = mu._atoms_by_length
        L2 = L * L
        n = L.size
        blocks = list(row_blocks(lower.size, n))
        # per block, the first atom at or above its smallest limit (j0) and
        # the first above its largest (j1): columns below j0 are outside
        # every tail on every row, columns from j1 on inside every tail
        starts = [rows.start for rows in blocks]
        j0s = np.minimum.reduceat(np.searchsorted(L, lower, "left"), starts)
        j1s = np.maximum.reduceat(np.searchsorted(L, lower, "right"), starts)
        # buffers for the first block, the largest: one of full rows, one
        # for each kernel but the last, and the root's
        full, *own, spare = _block_buffers(blocks[0].stop, n, len(kernels) + 1)
        for rows, j0, j1 in zip(blocks, j0s.tolist(), j1s.tolist()):
            if j0 == n:
                continue
            lo = lower[rows, None]
            c = c0[rows, None]
            m, width = lo.size, n - j0
            block = full[:m]
            # the live columns, contiguous at the start of a buffer
            s = _leading(spare, m, width) if j0 else block
            np.subtract(L2[j0:], c, out=s)
            below = L[j0:j1] < lo
            np.copyto(s[:, : j1 - j0], 1.0, where=below)
            np.sqrt(s, out=s)
            if j0:
                block[:, :j0] = 0.0
            targets = [_leading(buf, m, width) for buf in own] + [s]
            for kernel, t, out in zip(kernels, targets, outs):
                kernel.atom(S[j0:], L[j0:], s, c, t)
                outside = below if kernel.closed else L[j0:j1] <= lo
                np.copyto(t[:, : j1 - j0], 0.0, where=outside)
                if j0:
                    block[:, j0:] = t
                np.sum(block if j0 else t, axis=1, out=out[rows])
    for pa, pb, rho in mu.pieces:
        top = np.clip(lower, pa, pb)
        for kernel, out in zip(kernels, outs):
            out += rho * kernel.cell(top, pb, c0)
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
