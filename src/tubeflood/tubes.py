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
from functools import cached_property

import numpy as np

from .errors import ArgumentError
from .measures import Measure, check_kappa, row_blocks


@dataclass(frozen=True)
class TubeSystem:
    """Parallel tubes (L_j, S_j), sorted by length on construction.

    Tubes of exactly equal length are merged by summing their sections;
    every observable of the system is unchanged by the merge.
    """

    tubes: tuple

    def __post_init__(self):
        # the tubes are the atoms of a measure, which checks each (L, S)
        raw = sorted(Measure(atoms=self.tubes).atoms, key=lambda t: t[0])
        if not raw:
            raise ArgumentError("tube system must contain at least one tube")
        merged = [raw[0]]
        for L, S in raw[1:]:
            if L == merged[-1][0]:
                merged[-1] = (L, merged[-1][1] + S)
            else:
                merged.append((L, S))
        object.__setattr__(self, "tubes", tuple(merged))

    @cached_property
    def lengths(self):
        return np.array([L for L, _ in self.tubes])

    @cached_property
    def sections(self):
        return np.array([S for _, S in self.tubes])

    @property
    def n_tubes(self):
        return len(self.tubes)

    def as_measure(self):
        """The atomic tube-length measure of this system."""
        return Measure(atoms=self.tubes)


@dataclass(frozen=True)
class PumpHistory:
    """Piecewise-constant drive c(t) >= 0 with its exact running integral F.

    ``c_values[i]`` holds on [breakpoints[i], breakpoints[i+1]); the last
    value extends to infinity.  F is continuous, nondecreasing and
    piecewise-linear with F(0) = 0.
    """

    breakpoints: tuple
    c_values: tuple

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        cv = tuple(float(c) for c in self.c_values)
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

    @classmethod
    def constant(cls, c=1.0):
        return cls(breakpoints=(0.0,), c_values=(c,))

    @cached_property
    def _bp(self):
        return np.array(self.breakpoints)

    @cached_property
    def _c(self):
        return np.array(self.c_values)

    @cached_property
    def _cum(self):
        """F at each breakpoint."""
        seg = self._c[:-1] * np.diff(self._bp)
        return np.concatenate(([0.0], np.cumsum(seg)))

    def F_at(self, t):
        """Cumulative pumped volume per unit area at time(s) t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ArgumentError("pump history is defined for t >= 0 only")
        idx = np.clip(np.searchsorted(self._bp, t_arr, side="right") - 1, 0, None)
        out = self._cum[idx] + self._c[idx] * (t_arr - self._bp[idx])
        return float(out) if np.isscalar(t) else out

    def F_inverse(self, value):
        """Earliest time(s) with F(t) = value; inf where it is never reached."""
        v = np.asarray(value, dtype=float)
        cum = self._cum
        k = np.clip(np.searchsorted(cum, v, side="left") - 1, 0, None)
        # cum[k] < v <= cum[k+1] gives segment k a positive drive; above the
        # last breakpoint's F the last drive holds, and where it is 0 (or so
        # small that the time overflows) the division returns inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(v <= 0.0, 0.0, self._bp[k] + (v - cum[k]) / self._c[k])
        return float(out) if np.isscalar(value) else out


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
    if np.any(np.asarray(L) <= 0):
        raise ArgumentError("tube length must be > 0")
    kappa = check_kappa(kappa)
    return (1.0 + kappa) / 2.0 * L * L


def interface_position(L, kappa, F_val):
    """Interface position in a tube of length L after pumping F_val.

    L must be > 0.  Clamped to [0, L]; values of F_val at or beyond the
    breakthrough threshold return L (saturated tube).
    """
    kappa = check_kappa(kappa)
    L_arr = np.asarray(L, dtype=float)
    F_arr = np.asarray(F_val, dtype=float)
    if np.any(F_arr < 0):
        raise ArgumentError("pumped volume must be >= 0")
    thr = breakthrough_threshold(L_arr, kappa)
    # (L - sqrt(L^2 - 2 (1-kappa) F)) / (1-kappa) as 2F / (L + sqrt(...)),
    # which keeps its digits while F << L^2; F >= thr is replaced below
    F2 = 2.0 * F_arr
    disc = L_arr * L_arr - (1.0 - kappa) * F2
    pos = F2 / (L_arr + np.sqrt(np.maximum(disc, 0.0)))
    out = np.clip(np.where(F_arr >= thr, L_arr, pos), 0.0, L_arr)
    if np.isscalar(L) and np.isscalar(F_val):
        return float(out)
    return out


def reparam_xi(pump, kappa, t):
    """Length parameter xi(t) = sqrt(2 F(t) / (1 + kappa)).

    Maps tube time to the continuum front parameter: the continuum curves
    evaluated at xi(t) reproduce the discrete cumulative volumes.
    """
    kappa = check_kappa(kappa)
    F = pump.F_at(t)
    out = np.sqrt(2.0 * np.asarray(F) / (1.0 + kappa))
    return float(out) if np.isscalar(t) else out


def simulate(sys, kappa, pump, t_grid):
    """Run the tube system under the pump, sampling at t_grid.

    t_grid must be sorted and start at 0.  Breakthrough times are solved
    exactly by inverting the piecewise-linear F; cumulative water uses the
    per-tube telescoped form

        V_w(t) = (1/kappa) sum_j max(F(t) - F(t_j), 0) S_j / L_j

    which matches the segment-by-segment sum over broken-through tubes.
    The (time, tube) cells are filled over measures.row_blocks, so memory
    beyond the returned interfaces stays bounded.
    """
    kappa = check_kappa(kappa)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ArgumentError("t_grid must be a nonempty 1-d array")
    if t[0] != 0.0 or np.any(np.diff(t) < 0):
        raise ArgumentError("t_grid must be sorted and start at 0")

    L = sys.lengths
    S = sys.sections
    F = pump.F_at(t)
    thr = breakthrough_threshold(L, kappa)
    w = S / L

    interfaces = np.empty((t.size, L.size))
    v_w = np.empty(t.size)
    for rows in row_blocks(t.size, L.size):
        interfaces[rows] = interface_position(L, kappa, F[rows, None])
        v_w[rows] = np.maximum(F[rows, None] - thr, 0.0) @ w / kappa

    return TubeSimResult(
        times=t,
        pumped=F,
        interfaces=interfaces,
        v_w=v_w,
        v_o=interfaces @ S,
        breakthrough_times=pump.F_inverse(thr),
    )
