"""Tube-length measures and closed-form integration of the model kernels.

A measure assigns to each set of tube lengths the total cross-sectional
area of the tubes with those lengths.  It is represented as a finite list
of point atoms (L, S) plus piecewise-constant density pieces (a, b, rho),
which keeps every integral the model needs in closed form:

    moment:               integral of y^p dmu over [a, b),  p in {-1, 0, 1}
    tail_kernel_integral: integral of (y - sqrt(y^2 - (1-kappa^2) alpha^2)) dmu
                          over [a, infinity)

Interval conventions are half-open [a, b) throughout, so an atom sitting
exactly on a boundary is bucketed unambiguously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError

# Viscosity ratios are kept strictly away from 1 so that 1 - kappa stays
# bounded below; the displacement model degenerates as kappa -> 1.
KAPPA_MAX = 0.999


def check_kappa(kappa):
    """Validate a water/oil viscosity ratio, returning it as float."""
    kappa = float(kappa)
    if not 0.0 < kappa <= KAPPA_MAX:
        raise ArgumentError(
            f"viscosity ratio must lie in (0, {KAPPA_MAX}], got {kappa}"
        )
    return kappa


@dataclass(frozen=True)
class FluidParams:
    """Fluid pair description: kappa = mu_w / mu_o < 1.

    Raw viscosities and permeability are optional metadata; when both
    viscosities are given they must be consistent with kappa.
    """

    kappa: float
    mu_w: float | None = None
    mu_o: float | None = None
    k_perm: float | None = None

    def __post_init__(self):
        check_kappa(self.kappa)
        if (self.mu_w is None) != (self.mu_o is None):
            raise ArgumentError("mu_w and mu_o must be given together")
        if self.mu_w is not None:
            if self.mu_w <= 0 or self.mu_o <= 0:
                raise ArgumentError("viscosities must be positive")
            if not math.isclose(self.kappa, self.mu_w / self.mu_o, rel_tol=1e-9):
                raise ArgumentError("kappa inconsistent with mu_w / mu_o")
        if self.k_perm is not None and self.k_perm <= 0:
            raise ArgumentError("permeability must be positive")

    @classmethod
    def from_viscosities(cls, mu_w, mu_o, k_perm=None):
        if mu_w <= 0 or mu_o <= 0:
            raise ArgumentError("viscosities must be positive")
        return cls(kappa=mu_w / mu_o, mu_w=mu_w, mu_o=mu_o, k_perm=k_perm)


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
    def _atom_L(self):
        L = np.array([a[0] for a in self.atoms], dtype=float)
        order = np.argsort(L, kind="stable")
        return L[order]

    @cached_property
    def _atom_S(self):
        L = np.array([a[0] for a in self.atoms], dtype=float)
        S = np.array([a[1] for a in self.atoms], dtype=float)
        return S[np.argsort(L, kind="stable")]

    @cached_property
    def _prefix(self):
        """Prefix sums of S * L^p for p = -1, 0, 1, each of length n+1."""
        L, S = self._atom_L, self._atom_S
        return {
            -1: np.concatenate(([0.0], np.cumsum(S / L))),
            0: np.concatenate(([0.0], np.cumsum(S))),
            1: np.concatenate(([0.0], np.cumsum(S * L))),
        }

    @property
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


def moment(mu, p, a=0.0, b=math.inf):
    """Integral of y^p dmu(y) over [a, b) for p in {-1, 0, 1}.

    Atoms are summed exactly (atom at L counts iff a <= L < b); density
    pieces are integrated in closed form.
    """
    if p not in (-1, 0, 1):
        raise ArgumentError(f"moment exponent must be -1, 0 or 1, got {p}")
    if not 0 <= a <= b:
        raise ArgumentError(f"need 0 <= a <= b, got [{a}, {b})")
    total = 0.0
    if mu.atoms:
        L = mu._atom_L
        pref = mu._prefix[p]
        i0 = np.searchsorted(L, a, side="left")
        i1 = np.searchsorted(L, b, side="left")
        total += pref[i1] - pref[i0]
    for pa, pb, rho in mu.pieces:
        lo, hi = max(a, pa), min(b, pb)
        if hi > lo:
            if p == -1:
                total += rho * math.log(hi / lo)
            elif p == 0:
                total += rho * (hi - lo)
            else:
                total += rho * (hi * hi - lo * lo) / 2.0
    return total


def _tail_antiderivative(y, c0):
    """Antiderivative of y - sqrt(y^2 - c0), valid for y^2 >= c0 > 0.

    Algebraically equal to y^2/2 - [y sqrt(y^2-c0) - c0 ln(y + sqrt(y^2-c0))]/2,
    rearranged so the large-y cancellation is computed stably.
    """
    s = math.sqrt(y * y - c0)
    return 0.5 * c0 * (y / (y + s) + math.log(y + s))


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
    if c0 == 0.0:
        return 0.0
    total = 0.0
    if mu.atoms:
        L = mu._atom_L
        S = mu._atom_S
        i0 = np.searchsorted(L, a, side="left")
        if i0 < len(L):
            Lt, St = L[i0:], S[i0:]
            # stable form of L - sqrt(L^2 - c0)
            total += float(np.sum(St * c0 / (Lt + np.sqrt(Lt * Lt - c0))))
    for pa, pb, rho in mu.pieces:
        lo = max(a, pa)
        if lo < pb and rho > 0:
            total += rho * (
                _tail_antiderivative(pb, c0) - _tail_antiderivative(lo, c0)
            )
    return total


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


def with_mass_factor(mu, m):
    """Multiply all sections and densities by m (no geometry change).

    Composed with ``scale`` this yields the k^2-type solution family; only
    ``scale`` itself preserves the displacement characteristic.
    """
    if not m > 0:
        raise ArgumentError(f"mass factor must be > 0, got {m}")
    m = float(m)
    return Measure(
        atoms=tuple((L, m * S) for L, S in mu.atoms),
        pieces=tuple((a, b, m * r) for a, b, r in mu.pieces),
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
