"""Random model generators, test oracles and the round-trip report shared by the tests."""

import dataclasses

import numpy as np

from tubeflood import forward, inverse
from tubeflood.errors import ArgumentError
from tubeflood.measures import Measure


def random_measure(rng, alpha_max=10.0, kind="mixed", hi_frac=0.95):
    """Random nonzero measure with support inside (0, hi_frac * alpha_max).

    kind: "atoms", "pieces" or "mixed".
    """
    atoms = ()
    pieces = ()
    want_atoms = kind in ("atoms", "mixed")
    want_pieces = kind in ("pieces", "mixed")
    if kind == "mixed":
        # keep at least one component, drop the other at random
        if rng.random() < 0.3:
            want_atoms = False
        elif rng.random() < 0.3:
            want_pieces = False
    hi = hi_frac * alpha_max
    if want_atoms:
        n = int(rng.integers(1, 12))
        L = rng.uniform(0.25 * alpha_max, hi, n)
        S = rng.uniform(0.5, 2.0, n)
        atoms = tuple(zip(L.tolist(), S.tolist()))
    if want_pieces:
        n = int(rng.integers(1, 4))
        for _ in range(n):
            a = rng.uniform(0.1 * alpha_max, 0.8 * alpha_max)
            b = rng.uniform(a * 1.05, hi)
            rho = rng.uniform(0.2, 2.0)
            pieces += ((float(a), float(b), float(rho)),)
    return Measure(atoms=atoms, pieces=pieces)


def random_pump(rng, total_f, n_segments=4):
    """Piecewise-constant pump with positive final rate reaching total_f."""
    from tubeflood.tubes import PumpHistory

    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 5.0, n_segments - 1))])
    c = rng.uniform(0.1, 3.0, n_segments)
    c[-1] = max(c[-1], 0.5)  # guarantee every threshold is eventually reached
    return PumpHistory(tuple(breaks.tolist()), tuple(c.tolist()))


def searchsorted_sweep(M, h, x, g):
    """Test oracle: the back-substitution V_i = G(h_i + sum_j M[i, j] V_j)
    with one dot product and one searchsorted over all knots per row.

    Row i solves V_i = G(b + d V_i), b = h_i + M[i, i+1:] V[i+1:] and
    d = M[i, i], on the segment k of G whose knot x_k - d g_k is the last
    one at or below b; G is constant outside [x_0, x_last].
    """
    slope = np.diff(g) / np.diff(x)
    last = x.size - 1
    v = np.zeros(h.size)
    for i in range(h.size - 1, -1, -1):
        d = M[i, i]
        b = h[i] + M[i, i + 1:] @ v[i + 1:]
        knots = x - d * g
        k = int(np.searchsorted(knots, b, side="right")) - 1
        if k < 0:
            v[i] = g[0]
        elif k == last:
            v[i] = g[last]
        else:
            v[i] = g[k] + slope[k] * (b - knots[k]) / (1.0 - d * slope[k])
    return v


def pipeline_roundtrip(
    mu, kappa, alpha_max, n_samples=5001, config=None, density_window=None
):
    """forward -> invert -> compare Phi (and density) against ground truth.

    density_window=(lo, hi) turns on density recovery with alpha_min=lo and
    reports its sup error over [lo, hi]; this needs a pieces-only measure.
    Returns a dict of error norms and solver diagnostics.
    """
    cfg = config or inverse.RecoveryConfig(n_grid=2001)
    if density_window is not None:
        cfg = dataclasses.replace(cfg, alpha_min=density_window[0])
    curve = forward.build_curve(mu, kappa, alpha_max, n_samples)
    result = inverse.recover(curve, cfg)

    v_true = forward.v_w_samples(mu, kappa, result.grid)
    phi_true = forward.harmonic_cdf_samples(mu, result.grid)
    report = {
        "v_max": curve.v_max,
        "v_sup_error": float(np.max(np.abs(result.v - v_true))),
        "phi_end": float(phi_true[-1]),
        "phi_linf_error": float(np.max(np.abs(result.phi - phi_true))),
        "residual": result.residual,
        "error_bound": result.error_bound,
        "phi_clip_count": result.phi_clip_count,
    }
    if density_window is not None:
        if mu.atoms:
            raise ArgumentError("density round trip needs a pieces-only measure")
        lo, hi = density_window
        mask = (result.grid >= lo) & (result.grid <= hi) & ~np.isnan(result.f)
        f_true = np.zeros_like(result.grid)
        for pa, pb, rho in mu.pieces:
            f_true += np.where((result.grid >= pa) & (result.grid < pb), rho, 0.0)
        report["f_linf_error"] = float(
            np.max(np.abs(result.f[mask] - f_true[mask]))
        )
        report["f_clip_count"] = result.f_clip_count
    return report
