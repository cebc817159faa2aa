"""Stability verification, sensitivity statistics and partial-curve ambiguity.

Three experiment families built on the forward/inverse machinery:

* stability: perturb a curve, solve both fixed points and compare the
  sup distance of the solutions against the explicit bound
  (1+kappa)/(2 kappa) (alpha_max + (3+kappa)/(1+kappa)) * sup|G1 - G2|.
* sensitivity: for random atomic measure pairs, the ratio of L1 norms
  c = ||(G1'-G2')/(G1'+G2')|| : ||(F1-F2)/(F1+F2)||, F_j(alpha) = mu_j[0, alpha).
  Only pairs whose endpoint volumes agree to a tenth are compared.  The
  Monte Carlo driver applies that filter to each trial's raw draws, so a
  rejected trial (about nine in ten) builds no Measure.
* ambiguity: the explicit measure pairs that agree below a cutoff alpha_0,
  and the measured sup gap between their curves over the total-volume axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalConsistencyError
from .forward import (
    build_curve,
    check_alpha_max,
    endpoint_data,
    endpoint_volumes,
    v_o_samples,
    v_w_samples,
    volumes_and_water_cut,
)
from .inverse import solve_fixed_point
from .measures import (
    Measure,
    atom_prefix_sums,
    atoms_measure,
    check_count,
    check_kappa,
    check_length_range,
    check_number,
    check_range,
    check_rows,
    draw_atoms,
    moment,
    prefix_integral,
    random_atoms,  # noqa: F401  (perfbench's traced mc wraps analysis.random_atoms)
)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one stability experiment; v_diff <= bound must hold."""

    delta: float
    v_diff: float
    bound_constant: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class SensitivityRecord:
    """One Monte Carlo trial; c_value is NaN for pairs the filter rejects."""

    seed: int | None
    n1: int
    n2: int
    v1_max: float
    v2_max: float
    accepted: bool
    c_value: float


@dataclass(frozen=True)
class AmbiguityPair:
    """Two measures that coincide below alpha0 but differ in the tail.

    ambiguity_pair checks the ranges of alpha0 and k_factor; this checks
    only that the measures agree below alpha0.
    """

    mu1: Measure
    mu2: Measure
    alpha0: float
    k_factor: float

    def __post_init__(self):
        def below(mu):
            return [p for p in mu.pieces if p[1] <= self.alpha0] + [
                a for a in mu.atoms if a[0] < self.alpha0
            ]

        if below(self.mu1) != below(self.mu2):
            raise ArgumentError("measures must agree below alpha0")


def stability_bound(kappa, alpha_max):
    """Explicit stability constant (1+kappa)/(2 kappa) (alpha_max + (3+kappa)/(1+kappa))."""
    kappa = check_kappa(kappa)
    alpha_max = check_number("alpha_max", alpha_max)
    if not 0.0 <= alpha_max < math.inf:
        raise ArgumentError(f"alpha_max must be finite and >= 0, got {alpha_max}")
    return (1.0 + kappa) / (2.0 * kappa) * (alpha_max + (3.0 + kappa) / (1.0 + kappa))


def sinusoidal_perturbation(curve, delta0):
    """Curve with g + delta0 sin(pi x / v_max), trimmed back into the model class.

    The bump is capped wherever the unit slope or monotonicity headroom is
    insufficient, so the result is again a valid displacement curve with
    sup-perturbation at most delta0.
    """
    delta0 = check_number("delta0", delta0)
    if not 0 <= delta0 < math.inf:
        raise ArgumentError("delta0 must be finite and >= 0")
    x, g = curve.x, curve.g
    bumped = g + delta0 * np.sin(np.pi * x / curve.v_max)
    # slope cap: g2[i] <= min_{j<=i} g2[j] + (x[i]-x[j]);  then monotone
    capped = x + np.minimum.accumulate(bumped - x)
    monotone = np.maximum.accumulate(capped)
    return type(curve)(x=x, g=monotone, alpha_max=curve.alpha_max, kappa=curve.kappa)


def _sorted_unique(x):
    """The sorted distinct values of a 1-d array free of NaN, as numpy's
    unique gives them, from a sort and a mask of the values that differ
    from the one before: unique itself imports numpy.ma on its first
    call in a process, some 15 ms."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _sup_gap(curve1, curve2, x_top):
    """Sup of |G1 - G2| over total volumes in [0, x_top].

    The difference of two piecewise-linear graphs peaks at a breakpoint of
    either or at the range edge.
    """
    xs = np.concatenate([curve1.x, curve2.x, [x_top]])
    xs = _sorted_unique(xs[xs <= x_top])
    return float(np.max(np.abs(curve1(xs) - curve2(xs))))


def stability_experiment(curve1, curve2, config=None):
    """Solve both curves and compare against the explicit stability bound.

    The curves must share kappa and alpha_max.  Raises
    InternalConsistencyError if the bound is violated by more than the two
    solves' certified error bounds.
    """
    if curve1.kappa != curve2.kappa or curve1.alpha_max != curve2.alpha_max:
        raise ArgumentError("curves must share kappa and alpha_max")
    res1 = solve_fixed_point(curve1, config)
    res2 = solve_fixed_point(curve2, config)

    delta = _sup_gap(curve1, curve2, min(curve1.v_max, curve2.v_max))

    v_diff = float(np.max(np.abs(res1.v - res2.v)))
    constant = stability_bound(curve1.kappa, curve1.alpha_max)
    bound = constant * delta
    slack = res1.error_bound + res2.error_bound
    if v_diff > bound * (1.0 + 1e-6) + slack:
        raise InternalConsistencyError(
            f"stability bound violated: |V1-V2| = {v_diff:.6g} > {bound:.6g}"
        )
    return StabilityReport(
        delta=delta,
        v_diff=v_diff,
        bound_constant=constant,
        bound=bound,
        ratio=v_diff / delta if delta > 0 else math.nan,
    )


# ---------------------------------------------------------------------------
# sensitivity constant
# ---------------------------------------------------------------------------

def _similar_volumes(v1_max, v2_max):
    """The endpoint filter: |V1_max - V2_max| < V1_max/10."""
    return abs(v1_max - v2_max) < v1_max / 10.0


def _jump_aware_alphas(mu, alpha_max, n_grid):
    """Uniform alpha grid refined by atom locations +- one ulp."""
    L = mu._atoms_by_length[0]
    jumps = (np.nextafter(L, -np.inf), L, np.nextafter(L, np.inf))
    out = _sorted_unique(np.concatenate([np.linspace(0.0, alpha_max, n_grid)[1:], *jumps]))
    return out[(out > 0) & (out <= alpha_max)]


def sensitivity_constant(mu1, mu2, kappa, alpha_max, n_grid=2001, seed=None):
    """Ratio of curve-slope disagreement to measure disagreement (L1 norms).

    Both measures must pass endpoint_data's checks at alpha_max.  The pair
    is then filtered on the endpoint volumes: unless
    |V1_max - V2_max| < V1_max/10, the record comes back with accepted
    False and c_value NaN, at the cost of two endpoint_data calls.  run_mc
    applies the same filter to its raw draws first and calls this only for
    the pairs that pass it.  For an accepted pair the numerator samples the
    water cut of both measures against the shared total-volume axis; the
    denominator compares the counting functions F_j(alpha) = mu_j([0, alpha)).
    Points where numerator and denominator of the pointwise ratios both
    vanish contribute 0.  Each measure's total volume and water cut come
    from volumes_and_water_cut, whose one tail pass shares the root of the
    oil volume and oil rate kernels, with the bits of the separate
    samplers; the tails are most of an accepted pair's time.

    The numerator is a midpoint rule on the union of both curves' x samples
    (made monotone by a running maximum).  The water cut jumps at an atom,
    sampled at L - ulp, L and L + ulp, whose x differ by rounding: a
    trapezoid would spread the side rounding picks over a whole neighbouring
    cell, but each midpoint lies strictly inside its interval, so c moves
    by ulps when x does.
    """
    kappa = check_kappa(kappa)
    check_count("n_grid", n_grid, 2)
    vw1, vo1, _ = endpoint_data(mu1, kappa, alpha_max)
    vw2, vo2, _ = endpoint_data(mu2, kappa, alpha_max)
    v1_max, v2_max = vw1 + vo1, vw2 + vo2
    record = dict(
        seed=seed, n1=len(mu1.atoms), n2=len(mu2.atoms), v1_max=v1_max, v2_max=v2_max
    )
    if not _similar_volumes(v1_max, v2_max):
        return SensitivityRecord(**record, accepted=False, c_value=math.nan)
    if mu1 == mu2:
        raise ArgumentError("identical measures give a 0/0 sensitivity ratio")

    a1 = _jump_aware_alphas(mu1, alpha_max, n_grid)
    a2 = _jump_aware_alphas(mu2, alpha_max, n_grid)
    vw1, vo1, w1 = volumes_and_water_cut(mu1, kappa, a1)
    vw2, vo2, w2 = volumes_and_water_cut(mu2, kappa, a2)
    x1, x2 = np.maximum.accumulate(vw1 + vo1), np.maximum.accumulate(vw2 + vo2)

    x_top = min(v1_max, v2_max)
    xs = np.concatenate([x1[x1 <= x_top], x2[x2 <= x_top], [0.0, x_top]])
    xs = _sorted_unique(xs)
    mid = 0.5 * (xs[:-1] + xs[1:])
    g1p = np.interp(mid, x1, w1)
    g2p = np.interp(mid, x2, w2)
    den = g1p + g2p
    num_int = np.divide(np.abs(g1p - g2p), den, out=np.zeros_like(den), where=den > 0)
    numerator = float(np.dot(num_int, np.diff(xs)))

    aus = _sorted_unique(np.concatenate([a1, a2, [0.0]]))
    f1 = prefix_integral(mu1, 0, aus)
    f2 = prefix_integral(mu2, 0, aus)
    fden = f1 + f2
    den_int = np.divide(np.abs(f1 - f2), fden, out=np.zeros_like(fden), where=fden > 0)
    denominator = float(np.trapezoid(den_int, aus))
    if denominator == 0.0:
        raise ArgumentError("measures are indistinguishable on the grid")
    return SensitivityRecord(**record, accepted=True, c_value=numerator / denominator)


# Atoms a Monte Carlo measure may have, at most: an accepted trial samples
# each curve at about three alphas per atom, and its tails run over a
# tree of those alphas, so its time grows a little faster than the atom
# count.  sensitivity_constant on an accepted pair took 0.013-0.019 s
# of CPU at 10**3 atoms and 0.14-0.17 s at 10**4 on a 2-vCPU host (0.065
# s and 3.0 s when every sample summed over every atom).
MC_MAX_ATOMS = 10**4


def run_mc(
    n_trials,
    seed,
    kappa=0.5,
    alpha_max=10.0,
    n_grid=2001,
    n_atoms_range=(5, 50),
    l_range=(2.5, 10.0),
    s_range=(0.5, 2.0),
    jobs=1,
):
    """Seeded batch of sensitivity trials, run serially in seed order.

    Trial i draws from a generator seeded with seed + i, in this order: the
    atom counts n1 and n2 uniform in n_atoms_range, then the lengths and
    sections of the first measure and of the second (random_atoms' draws),
    so reruns (and any subset) are reproducible.  The endpoint filter runs
    on the raw draws: each measure's endpoint volume comes from its atoms'
    moment sums (atom_prefix_sums, the bits a Measure would hold, raising
    as it would on a sum past the doubles) through endpoint_volumes.  So a
    rejected trial, about nine in ten, costs its draws and those sums and
    builds no Measure.  An accepted pair becomes two Measures and goes
    through sensitivity_constant, so every record equals a direct call's.

    Every argument is checked before the first trial: counts are integers
    with 1 <= lo <= hi <= MC_MAX_ATOMS, l_range passes check_length_range
    and s_range check_range, and l_range[1] <= alpha_max, so every draw is
    a valid atom.  jobs is kept for callers that pass it and must be 1.
    """
    check_count("n_trials", n_trials, 1)
    check_count("jobs", jobs, 1, 1)   # trials run serially
    check_count("seed", seed, 0, maximum=None)
    kappa = check_kappa(kappa)
    check_count("n_grid", n_grid, 2)
    alpha_max = check_alpha_max(alpha_max)
    check_rows("n_atoms_range", (n_atoms_range,), 2)   # a pair of numbers
    lo, hi = n_atoms_range
    check_count("n_atoms_range[0]", lo, 1)
    # an accepted trial samples each curve at about three alphas per atom,
    # about 0.16 s of CPU at 10**4 atoms
    check_count("n_atoms_range[1]", hi, lo, MC_MAX_ATOMS)
    l_range = check_length_range("l_range", l_range)
    s_range = check_range("s_range", s_range)
    if not l_range[1] <= alpha_max:
        raise ArgumentError(
            f"l_range must end at or below alpha_max={alpha_max}, got {l_range}"
        )

    def endpoint_volume(L, S):
        L, _, sums = atom_prefix_sums(L, S)
        vw, vo, _ = endpoint_volumes(
            kappa, alpha_max, float(L[-1]), float(sums[0, -1]), float(sums[2, -1])
        )
        return vw + vo

    records = []
    for trial_seed in range(seed, seed + n_trials):
        rng = np.random.default_rng(trial_seed)
        n1 = int(rng.integers(lo, hi + 1))
        n2 = int(rng.integers(lo, hi + 1))
        L1, S1 = draw_atoms(rng, n1, l_range, s_range)
        L2, S2 = draw_atoms(rng, n2, l_range, s_range)
        v1_max, v2_max = endpoint_volume(L1, S1), endpoint_volume(L2, S2)
        if _similar_volumes(v1_max, v2_max):
            mu1, mu2 = atoms_measure(L1, S1), atoms_measure(L2, S2)
            record = sensitivity_constant(
                mu1, mu2, kappa, alpha_max, n_grid, seed=trial_seed
            )
        else:
            record = SensitivityRecord(
                trial_seed, n1, n2, v1_max, v2_max, accepted=False, c_value=math.nan
            )
        records.append(record)
    return records


def summarize_mc(records):
    """Count and c statistics over the accepted records."""
    cs = np.array([r.c_value for r in records if r.accepted])
    summary = {
        "trials": len(records),
        "accepted": int(cs.size),
        "c_min": float(np.min(cs)) if cs.size else math.nan,
        "c_median": float(np.median(cs)) if cs.size else math.nan,
        "c_max": float(np.max(cs)) if cs.size else math.nan,
    }
    summary["max_c_at_least_5"] = bool(cs.size and summary["c_max"] >= 5.0)
    return summary


# ---------------------------------------------------------------------------
# partial-curve ambiguity
# ---------------------------------------------------------------------------

def ambiguity_pair(alpha0, k_factor):
    """The explicit pair: shared density 1 on [1, alpha0], rescaled tail piece.

    mu1 carries a unit-density tail on [alpha0+1, alpha0+2]; mu2 carries
    density k^2 on [(alpha0+1)/k, (alpha0+2)/k].  Requires
    0 < k < 1 + 1/alpha0 so the rescaled tail stays above alpha0.
    """
    alpha0, k_factor = check_number("alpha0", alpha0), check_number("k", k_factor)
    if not alpha0 > 1:
        raise ArgumentError("alpha0 must be > 1")
    if not 0 < k_factor < 1 + 1 / alpha0:
        raise ArgumentError(
            f"k must lie in (0, {1 + 1 / alpha0:g}) for alpha0={alpha0}, got {k_factor}"
        )
    shared = (1.0, alpha0, 1.0)
    mu1 = Measure(pieces=(shared, (alpha0 + 1.0, alpha0 + 2.0, 1.0)))
    mu2 = Measure(
        pieces=(
            shared,
            ((alpha0 + 1.0) / k_factor, (alpha0 + 2.0) / k_factor, k_factor**2),
        )
    )
    return AmbiguityPair(mu1=mu1, mu2=mu2, alpha0=alpha0, k_factor=k_factor)


def curve_gap(pair, kappa, alpha_probe, n_grid=2001):
    """Sup |G1(x) - G2(x)| over total volumes reachable with alpha <= alpha_probe.

    Both curves are built with a shared alpha_max covering both supports;
    the comparison is between graphs over the common total-volume axis, the
    only parameterization-free comparison.  n_grid, the samples of each
    curve, must be an integer >= 2.
    """
    kappa = check_kappa(kappa)
    check_count("n_grid", n_grid, 2)
    alpha_probe = check_number("alpha_probe", alpha_probe)
    if not 0 <= alpha_probe <= pair.alpha0:
        raise ArgumentError("probe must lie in [0, alpha0]")
    alpha_max = max(pair.mu1.support_sup, pair.mu2.support_sup)
    mus = (pair.mu1, pair.mu2)
    c1, c2 = (build_curve(mu, kappa, alpha_max, n_grid) for mu in mus)
    x_top = min(
        float(v_w_samples(mu, kappa, alpha_probe) + v_o_samples(mu, kappa, alpha_probe))
        for mu in mus
    )
    return _sup_gap(c1, c2, x_top)


def ambiguity_series_estimate(pair, kappa, alpha_probe):
    """Leading-order estimate of the curve gap at the probe.

    The tail kernel expands as (1-kappa^2) alpha^2 / (2y) + O(alpha^4), so
    the oil-volume mismatch is about (1+kappa) alpha^2 / 2 times the
    difference of the tails' harmonic moments.
    """
    kappa = check_kappa(kappa)
    alpha_probe = check_number("alpha_probe", alpha_probe)
    d_inv = abs(
        moment(pair.mu1, -1, pair.alpha0) - moment(pair.mu2, -1, pair.alpha0)
    )
    return (1.0 + kappa) * alpha_probe**2 / 2.0 * d_inv
