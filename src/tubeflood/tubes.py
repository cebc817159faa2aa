"""Discrete n-tube displacement model under an arbitrary pressure schedule.

Each tube of length L and section S is filled with oil and flooded from one
end; the water/oil interface position depends on the pump only through the
cumulative drive F(t) = int_0^t c(tau) dtau:

    l(t) = (L - sqrt(L^2 - 2 (1-kappa) F(t))) / (1 - kappa)

until breakthrough at F = (1+kappa) L^2 / 2, after which the tube produces
water.  Pressure schedules are piecewise-constant in c(t), so F is
piecewise-linear and breakthrough times invert exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, overflow_guard
from .measures import Measure, check_array, check_kappa, check_rows, row_blocks


@dataclass(frozen=True)
class TubeSystem:
    """Parallel tubes (L_j, S_j): the atoms of a measure, sorted by length.

    Tubes of exactly equal length are merged by summing their sections in
    input order; every observable of the system is unchanged by the merge.
    tubes holds the merged pairs, and lengths and sections the same as two
    arrays, lengths strictly ascending.
    """

    tubes: tuple

    def __post_init__(self):
        # Measure checks each (L, S) and sorts them stably by length, so
        # equal lengths are neighbours; bincount adds each length's
        # sections in that order
        L, S = Measure(atoms=self.tubes)._atoms_by_length
        if not L.size:
            raise ArgumentError("tube system must contain at least one tube")
        first = np.concatenate(([True], L[1:] != L[:-1]))
        lengths = L[first]
        sections = np.bincount(np.cumsum(first) - 1, weights=S)
        merged = tuple(zip(lengths.tolist(), sections.tolist()))
        object.__setattr__(self, "tubes", merged)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "sections", sections)

    @property
    def n_tubes(self):
        return len(self.tubes)


@dataclass(frozen=True)
class PumpHistory:
    """Piecewise-constant drive c(t) >= 0 with its exact running integral F.

    ``c_values[i]`` holds on [breakpoints[i], breakpoints[i+1]); the last
    value extends to infinity.  F is continuous, nondecreasing and
    piecewise-linear with F(0) = 0.  The constructor builds F at every
    breakpoint; an F there that overflows a double raises ArgumentError,
    as does a breakpoint or a drive that is not a number (check_rows).
    """

    breakpoints: tuple
    c_values: tuple

    def __post_init__(self):
        bp, cv = check_rows("pump history", (self.breakpoints, self.c_values))
        if len(bp) != len(cv) or not bp:
            raise ArgumentError("need one c value per breakpoint")
        if bp[0] != 0.0:
            raise ArgumentError("first breakpoint must be t = 0")
        if any(not b1 < b2 < math.inf for b1, b2 in zip(bp, bp[1:])):
            raise ArgumentError("breakpoints must be finite and strictly increasing")
        if any(not (c >= 0 and math.isfinite(c)) for c in cv):
            raise ArgumentError("drive values must be finite and >= 0")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "c_values", cv)
        object.__setattr__(self, "_bp", np.array(bp))
        object.__setattr__(self, "_c", np.array(cv))
        with overflow_guard("the pumped volume"):
            cum = np.cumsum(self._c[:-1] * np.diff(self._bp))
        object.__setattr__(self, "_cum", np.concatenate(([0.0], cum)))

    def F_at(self, t):
        """Cumulative pumped volume per unit area at time(s) t >= 0; a
        volume past the doubles raises ArgumentError."""
        t_arr = check_array("t", t)
        if not np.all((0 <= t_arr) & (t_arr < math.inf)):
            raise ArgumentError("pump history is defined for finite t >= 0 only")
        idx = np.clip(np.searchsorted(self._bp, t_arr, side="right") - 1, 0, None)
        with overflow_guard("the pumped volume"):
            return self._cum[idx] + self._c[idx] * (t_arr - self._bp[idx])

    def F_inverse(self, value):
        """Earliest time(s) with F(t) = value; inf where it is never reached.

        A value <= 0 (-inf too) gives 0, +inf gives inf, and a NaN value
        raises ArgumentError."""
        v = check_array("pumped volume", value)
        if np.isnan(v).any():
            raise ArgumentError("a pumped volume to invert must not be NaN")
        cum = self._cum
        k = np.clip(np.searchsorted(cum, v, side="left") - 1, 0, None)
        # cum[k] < v <= cum[k+1] gives segment k a positive drive; above the
        # last breakpoint's F the last drive holds, and where it is 0 (or so
        # small that the time overflows) the division returns inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(v <= 0.0, 0.0, self._bp[k] + (v - cum[k]) / self._c[k])


@dataclass(frozen=True, eq=False)
class TubeSimResult:
    """Time-domain simulation output.

    interfaces has shape (n_times, n_tubes); v_w and v_o are the cumulative
    produced water and oil volumes; breakthrough_times[k] is when tube k
    (in length order) starts producing water.
    """

    times: np.ndarray
    pumped: np.ndarray
    interfaces: np.ndarray
    v_w: np.ndarray
    v_o: np.ndarray
    breakthrough_times: np.ndarray


def breakthrough_threshold(L, kappa):
    """Pumped volume per unit area at which a tube of length L breaks through."""
    lengths = check_array("tube length", L)
    if not np.all((0 < lengths) & (lengths < math.inf)):
        raise ArgumentError("tube length must be > 0 and finite")
    kappa = check_kappa(kappa)
    return (1.0 + kappa) / 2.0 * lengths * lengths


def _interface_law(L, L2, F2, cF2, n_mixed, out):
    """Unsaturated interface position, written into out, for L2 = L * L.

    (L - sqrt(L^2 - 2 (1-kappa) F)) / (1-kappa) as 2F / (L + sqrt(...)),
    which keeps its digits while F << L^2; F2 is 2F and cF2 (1-kappa) 2F,
    columns over the rows of out, formed once by simulate.  Cells at or
    beyond breakthrough are the caller's to replace by L, and only the
    first n_mixed columns of out may hold one: there the root's argument
    may round below 0 and is raised to 0.  In every other column F lies
    below the threshold (1+kappa)/2 L^2 on every row, and the argument
    needs no guard: with u = 2^-53 and each of L2, the threshold, 1-kappa,
    cF2 and the difference rounded once or twice, it stays above
    (kappa^2 - 6u) L^2 (1 - u), which is kappa^2 L^2 (1 - 7e-4) at
    KAPPA_MIN (2.7e-4 was the worst seen at F up to 8 ulps below each
    threshold, kappa from 1e-6 to 0.999, L from 1e-150 to 1e150).  A
    difference of normal doubles that lands among the subnormals is exact.
    A negative argument there would raise ArgumentError under simulate's
    overflow_guard, not pass quietly.
    """
    np.subtract(L2, cF2, out=out)
    mixed = out[:, :n_mixed]
    np.maximum(mixed, 0.0, out=mixed)
    np.sqrt(out, out=out)
    np.add(L, out, out=out)
    return np.divide(F2, out, out=out)


def reparam_xi(pump, kappa, t):
    """Length parameter xi(t) = sqrt(2 F(t) / (1 + kappa)).

    Maps tube time to the continuum front parameter: the continuum curves
    evaluated at xi(t) reproduce the discrete cumulative volumes.  An F or
    2 F past the doubles raises ArgumentError.
    """
    kappa = check_kappa(kappa)
    F = pump.F_at(t)
    with overflow_guard("the pumped volume"):
        return np.sqrt(2.0 * F / (1.0 + kappa))


def simulate(sys, kappa, pump, t_grid):
    """Run the tube system under the pump, sampling at t_grid.

    t_grid must be sorted and start at 0.  Breakthrough times are solved
    exactly by inverting the piecewise-linear F; cumulative water uses the
    per-tube telescoped form

        V_w(t) = (1/kappa) sum_j max(F(t) - F(t_j), 0) S_j / L_j

    which matches the segment-by-segment sum over broken-through tubes.
    The tubes are sorted by length, so the k(t) broken through are a
    prefix, and V_w = ((F - top[k]) W[k] + D[k]) / kappa, anchored at the
    last of them so every term is >= 0: top[k] = thr_{k-1} (top[0] = 0),
    and W[k], D[k] sum S_j / L_j and (top[k] - thr_j) S_j / L_j over j < k,
    over the tubes broken by the last time only, in np.longdouble: V_w
    is within about an ulp where that type is wider (x86).  The interfaces are
    filled over measures.row_blocks: the prefix broken on every row of a
    block gets L by a copy, the interface law is written straight into
    the rest, with the breakthrough mask and the root's guard against a
    negative argument only on the columns where the rows disagree (past
    them F is below the threshold on every row, and the argument stays
    above kappa^2 L^2 (1 - 7e-4), see _interface_law), and every live cell
    is clamped to at most L: a law value is 2F / (L + root) >= 0, so a
    lower bound never binds.  No
    output depends on the block size.  The body runs under
    errors.overflow_guard: a volume, drive or threshold that overflows a
    double (a huge L, S or drive) raises ArgumentError.
    """
    kappa = check_kappa(kappa)
    t = check_array("t_grid", t_grid)
    if t.ndim != 1 or t.size == 0:
        raise ArgumentError("t_grid must be a nonempty 1-d array")
    if t[0] != 0.0 or not np.all(np.diff(t) >= 0):   # a NaN is unsorted
        raise ArgumentError("t_grid must be sorted and start at 0")

    L, S = sys.lengths, sys.sections
    n = L.size
    with overflow_guard("the tube simulation"):
        F = pump.F_at(t)
        thr = breakthrough_threshold(L, kappa)
        k = np.searchsorted(thr, F, "right")       # tubes broken at each time
        m = k.max()
        L2 = L * L
        f = F[:, None]
        F2 = 2.0 * f
        cF2 = (1.0 - kappa) * F2
        blocks = list(row_blocks(t.size, n))
        # tubes below k0 have broken through on every row of a block, tubes
        # from k1 on on no row of it: the least and greatest k of its rows,
        # as F may step down by an ulp at a pump breakpoint
        starts = [rows.start for rows in blocks]
        k0s = np.minimum.reduceat(k, starts).tolist()
        k1s = np.maximum.reduceat(k, starts).tolist()
        interfaces = np.empty((t.size, n))
        for rows, k0, k1 in zip(blocks, k0s, k1s):
            interfaces[rows, :k0] = L[:k0]
            live = interfaces[rows, k0:]
            _interface_law(L[k0:], L2[k0:], F2[rows], cF2[rows], k1 - k0, live)
            np.copyto(live[:, : k1 - k0], L[k0:k1], where=f[rows] >= thr[k0:k1])
            np.minimum(live, L[k0:], out=live)

        top = np.concatenate(([0.0], thr[:m]))
        W = np.concatenate(([0.0], np.cumsum(S[:m] / L[:m], dtype=np.longdouble)))
        D = np.concatenate(([0.0], np.cumsum(np.diff(top) * W[:-1])))
        v_w = (((F - top[k]) * W[k] + D[k]) / kappa).astype(float)
        # a long double past the doubles: NumPy 2.4 raises at the cast, under
        # the guard; a NumPy whose cast makes it inf quietly gets here
        if not np.all(np.isfinite(v_w)):
            raise ArgumentError("the tube simulation overflows a double: V_w")
        return TubeSimResult(
            times=t,
            pumped=F,
            interfaces=interfaces,
            v_w=v_w,
            v_o=interfaces @ S,
            breakthrough_times=pump.F_inverse(thr),
        )
