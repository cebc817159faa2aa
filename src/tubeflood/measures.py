"""Tube-length measures and the one integral layer of the model.

A measure assigns to each set of tube lengths the total cross-sectional
area of the tubes with those lengths.  It is represented as a finite list
of point atoms (L, S) plus piecewise-constant density pieces (a, b, rho),
which keeps every integral the model needs in closed form.  Each of them
is one of two integrals, vectorized over an array of alpha >= 0:

    prefix_integral: integral of y^p dmu over [0, alpha), p in {-1, 0, 1},
                     or over [0, alpha] with inclusive=True
    tail_integral:   integral of a kernel k(y; c0) dmu over the tail above
                     alpha, with c0 = (1-kappa^2) alpha^2; the two kernels are
                     OIL_VOLUME  y - sqrt(y^2 - c0)  over [alpha, inf)  (V_o)
                     OIL_RATE    1 / sqrt(y^2 - c0)  over (alpha, inf)  (V_o')

Atoms enter a prefix integral through prefix sums and a binary search.  In
a tail integral every (alpha, atom) cell is evaluated, in row blocks of
alpha holding at most _BLOCK_CELLS cells (or one row), in place in two
per-thread buffers kept from one call to the next: memory stays near
0.5 MB below 2^15 atoms, and no block-sized array is allocated per
call.  That row-block rule, row_blocks, is the package's only one: the
operator assembly and the tube simulation loop over it too.  Pieces
enter both integrals through closed-form antiderivatives.  The scalar
moment and tail_kernel_integral are one-point views of the same two
routines.

Interval conventions are half-open [a, b) throughout, so an atom sitting
exactly on a boundary is bucketed unambiguously.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentError

# Viscosity ratios are kept strictly away from 1 so that 1 - kappa stays
# bounded below; the displacement model degenerates as kappa -> 1.
KAPPA_MAX = 0.999

# Cells per row block of row_blocks: temporaries stay near 256 KB.
_BLOCK_CELLS = 1 << 15

_TAIL_WORK = threading.local()   # this thread's tail_integral block buffers


def row_blocks(n_rows, n_cols, start=0):
    """Row slices over start..n_rows-1 of at most _BLOCK_CELLS cells (>= 1 row)."""
    step = max(1, _BLOCK_CELLS // n_cols)
    for r in range(start, n_rows, step):
        yield slice(r, min(r + step, n_rows))


def check_kappa(kappa):
    """Validate a water/oil viscosity ratio, returning it as float."""
    kappa = float(kappa)
    if not 0.0 < kappa <= KAPPA_MAX:
        raise ArgumentError(
            f"viscosity ratio must lie in (0, {KAPPA_MAX}], got {kappa}"
        )
    return kappa


@dataclass(frozen=True)
class Measure:
    """Finite measure on (0, inf): point atoms plus constant-density pieces.

    atoms:  tuple of (L, S), L > 0, S > 0
    pieces: tuple of (a, b, rho), 0 < a < b, rho >= 0

    Immutable after construction; all operations on it are pure.
    """

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(L), float(S)) for L, S in self.atoms)
        pieces = tuple((float(a), float(b), float(r)) for a, b, r in self.pieces)
        for L, S in atoms:
            if not (L > 0 and math.isfinite(L)):
                raise ArgumentError(f"atom length must be finite and > 0, got {L}")
            if not (S > 0 and math.isfinite(S)):
                raise ArgumentError(f"atom section must be finite and > 0, got {S}")
        for a, b, r in pieces:
            if not (0 < a < b and math.isfinite(b)):
                raise ArgumentError(f"piece needs 0 < a < b < inf, got [{a}, {b})")
            if not (r >= 0 and math.isfinite(r)):
                raise ArgumentError(f"piece density must be finite and >= 0, got {r}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)

    # -- cached array views (sorted by length for prefix-sum lookups) --

    @cached_property
    def _atoms_by_length(self):
        """Atom lengths and sections as two arrays, sorted by length."""
        L = np.array([a[0] for a in self.atoms], dtype=float)
        S = np.array([a[1] for a in self.atoms], dtype=float)
        order = np.argsort(L, kind="stable")
        return L[order], S[order]

    @cached_property
    def _prefix(self):
        """Prefix sums of S * L^p for p = -1, 0, 1, each of length n+1."""
        L, S = self._atoms_by_length
        sums = np.zeros((3, L.size + 1))
        for row, terms in zip(sums, (S / L, S, S * L)):
            np.cumsum(terms, out=row[1:])
        return dict(zip((-1, 0, 1), sums))

    @cached_property
    def support_sup(self):
        """Supremum of the support; 0.0 for the zero measure."""
        tops = [L for L, _ in self.atoms] + [b for _, b, _ in self.pieces]
        return max(tops, default=0.0)

    @property
    def total_mass(self):
        return moment(self, 0)

    @property
    def is_zero(self):
        return self.total_mass == 0.0

    # -- config (de)serialization used by the CLI --

    def as_dict(self):
        return {
            "atoms": [{"L": L, "S": S} for L, S in self.atoms],
            "pieces": [{"a": a, "b": b, "rho": r} for a, b, r in self.pieces],
        }

    @classmethod
    def from_dict(cls, data):
        try:
            atoms = tuple(
                (float(d["L"]), float(d["S"])) for d in data.get("atoms", [])
            )
            pieces = tuple(
                (float(d["a"]), float(d["b"]), float(d["rho"]))
                for d in data.get("pieces", [])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed measure config: {exc}") from exc
        return cls(atoms=atoms, pieces=pieces)


def _alpha_array(alphas):
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size and not (alphas.min() >= 0.0 and alphas.max() < math.inf):
        raise ArgumentError("alpha must be finite and >= 0")
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
    pieces = np.zeros_like(alphas)
    for pa, pb, rho in mu.pieces:
        hi = np.clip(alphas, pa, pb)
        pieces += np.where(alphas > pa, rho * _PIECE_PREFIX[p](hi, pa), 0.0)
    if not mu.atoms:
        return pieces
    side = "right" if inclusive else "left"
    L = mu._atoms_by_length[0]
    atoms = mu._prefix[p][np.searchsorted(L, alphas, side=side)]
    return atoms + pieces if mu.pieces else atoms


class TailKernel(NamedTuple):
    """Integrand k(y; c0) of a tail integral, defined for y^2 >= c0 >= 0.

    atom(w, y, s, c0, spare) overwrites s = sqrt(y^2 - c0) with w k(y; c0),
    using spare (of s's shape) as scratch; cell(lo, hi, c0) integrates k
    over [lo, hi]; closed says whether an atom exactly at the lower limit
    lies in the tail.
    """

    atom: Callable
    cell: Callable
    closed: bool


def _oil_volume_antiderivative(y, c0):
    """Antiderivative of y - sqrt(y^2 - c0), valid for y^2 >= c0 >= 0.

    Algebraically equal to y^2/2 - [y sqrt(y^2-c0) - c0 ln(y + sqrt(y^2-c0))]/2,
    rearranged so the large-y cancellation is computed stably.
    """
    s = np.sqrt(np.maximum(y * y - c0, 0.0))
    return 0.5 * c0 * (y / (y + s) + np.log(y + s))


def _log_root(y, c0):
    """y + sqrt(y^2 - c0), whose log is the antiderivative of 1/sqrt(y^2 - c0)."""
    return y + np.sqrt(np.maximum(y * y - c0, 0.0))


OIL_VOLUME = TailKernel(
    # w c0 / (y + s), the stable form of w (y - s)
    atom=lambda w, y, s, c0, spare: np.divide(
        np.multiply(w, c0, out=spare), np.add(y, s, out=s), out=s
    ),
    cell=lambda lo, hi, c0: (
        _oil_volume_antiderivative(hi, c0) - _oil_volume_antiderivative(lo, c0)
    ),
    closed=True,
)

OIL_RATE = TailKernel(
    atom=lambda w, y, s, c0, spare: np.divide(w, s, out=s),
    cell=lambda lo, hi, c0: np.log(_log_root(hi, c0) / _log_root(lo, c0)),
    closed=False,
)


def _block_buffers(rows, cols):
    """Two (rows, cols) views on this thread's buffers, kept between calls.

    Nothing read from them carries over: each block writes every cell of s
    and spare before it reads it.
    """
    cells = rows * cols
    work = getattr(_TAIL_WORK, "buffers", None)
    if work is None or work.shape[1] < cells:
        work = _TAIL_WORK.buffers = np.empty((2, cells))
    return work[:, :cells].reshape(2, rows, cols)


def tail_integral(mu, kernel, c0, lower):
    """Integral of kernel(y; c0) dmu(y) over the tail above lower, per element.

    c0 and lower are arrays of one shape with c0 <= lower^2, so the root
    stays real on the tail; the tail is [lower, inf) for a closed kernel
    and (lower, inf) otherwise.  The result has that shape.  Atom cells are
    summed over row_blocks, each row over all atoms in length order (the
    ones outside the tail add 0), so the value does not depend on the block
    size.  Each block is computed in place in _block_buffers: with fresh
    256 KB temporaries per step, glibc trimmed the heap top after a block
    and faulted it back in for the next, so the time of a sensitivity
    trial followed the host's page-fault cost.
    """
    lower = _alpha_array(lower)
    shape = lower.shape
    lower = lower.ravel()
    c0 = np.asarray(c0, dtype=float).ravel()
    out = np.zeros_like(lower)
    if mu.atoms:
        L, S = mu._atoms_by_length
        L2 = L * L
        for rows in row_blocks(lower.size, L.size):
            lo = lower[rows, None]
            c = c0[rows, None]
            outside = L < lo if kernel.closed else L <= lo
            s, spare = _block_buffers(lo.size, L.size)
            np.subtract(L2, c, out=s)
            np.copyto(s, 1.0, where=outside)
            np.sqrt(s, out=s)
            kernel.atom(S, L, s, c, spare)
            np.copyto(s, 0.0, where=outside)
            np.sum(s, axis=1, out=out[rows])
    for pa, pb, rho in mu.pieces:
        lo = np.maximum(lower, pa)
        live = lo < pb
        out += np.where(live, rho * kernel.cell(np.where(live, lo, pb), pb, c0), 0.0)
    return out.reshape(shape)


def moment(mu, p, a=0.0, b=math.inf):
    """Integral of y^p dmu(y) over [a, b) for p in {-1, 0, 1}.

    The difference of two prefix integrals: an atom at L counts iff
    a <= L < b; density pieces are integrated in closed form.
    """
    if not 0 <= a <= b:
        raise ArgumentError(f"need 0 <= a <= b, got [{a}, {b})")
    # every point above the support sees the whole measure
    top = math.nextafter(mu.support_sup, math.inf)
    lo, hi = _prefix_integral(mu, p, np.array([min(a, top), min(b, top)]))
    return float(hi - lo)


def tail_kernel_integral(mu, alpha, kappa, a):
    """Integral of (y - sqrt(y^2 - (1-kappa^2) alpha^2)) dmu(y) over [a, inf).

    Requires a >= alpha >= 0 so the square root stays real on the whole
    integration range.  Vanishes identically at alpha = 0 and is
    nondecreasing in alpha.
    """
    kappa = check_kappa(kappa)
    if not 0 <= alpha <= a:
        raise ArgumentError(f"need a >= alpha >= 0, got alpha={alpha}, a={a}")
    c0 = (1.0 - kappa * kappa) * alpha * alpha
    return float(tail_integral(mu, OIL_VOLUME, np.array([c0]), np.array([a]))[0])


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


def random_atoms(seed, n, L_range=(2.5, 10.0), S_range=(0.5, 2.0)):
    """n random atoms with L uniform in L_range and S uniform in S_range.

    Deterministic given the seed; ``seed`` may also be a Generator, in which
    case its stream is consumed in place (used by the Monte Carlo driver).
    """
    if n < 1:
        raise ArgumentError(f"need n >= 1 atoms, got {n}")
    lo, hi = L_range
    slo, shi = S_range
    if not (0 < lo < hi) or not (0 < slo < shi):
        raise ArgumentError(
            f"empty or invalid ranges: L_range={L_range}, S_range={S_range}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    L = rng.uniform(lo, hi, n)
    S = rng.uniform(slo, shi, n)
    return Measure(atoms=tuple(zip(L.tolist(), S.tolist())))
