"""Random model generators, test oracles and the round-trip report shared by the tests."""

import dataclasses
import math

import numpy as np

from tubeflood import forward, inverse
from tubeflood.errors import ArgumentError
from tubeflood.measures import Measure, prefix_integral, row_blocks


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


def interface_closed_form(L, kappa, F):
    """Test oracle: interface positions in tubes of lengths L after pumping F.

    The closed form 2F / (L + sqrt(L^2 - (1-kappa) 2F)) in the operation
    order of tubes._interface_law, then L from the breakthrough threshold
    (1+kappa)/2 L^2 on, clipped to [0, L]: what simulate writes per cell.
    """
    F2 = 2.0 * F
    law = F2 / (L + np.sqrt(np.maximum(L * L - (1.0 - kappa) * F2, 0.0)))
    saturated = F >= (1.0 + kappa) / 2.0 * L * L
    return np.clip(np.where(saturated, L, law), 0.0, L)


def water_volume_fsum(L, S, kappa, F):
    """Test oracle: V_w after pumping each F, rounded once before the division.

    math.fsum of (F - thr_j) S_j / L_j over the tubes whose breakthrough
    threshold thr_j lies below F, divided by kappa.
    """
    from tubeflood.tubes import breakthrough_threshold

    thr = breakthrough_threshold(L, kappa)
    return np.array([
        math.fsum(((f - thr[thr < f]) * S[thr < f] / L[thr < f]).tolist()) / kappa
        for f in F
    ])


def stable_prefix_sums(L, S):
    """Test oracle: measures.atom_prefix_sums as a stable sort of the
    lengths and one 1-D np.add.accumulate per row of S L^(k-1) after its
    leading 0."""
    order = np.argsort(L, kind="stable")
    L, S = L[order], S[order]
    sums = np.zeros((3, L.size + 1))
    for row, terms in zip(sums, (S / L, S, S * L)):
        np.add.accumulate(terms, out=row[1:])
    return L, S, sums


def simulate_reference(sys, kappa, pump, t):
    """Test oracle: the interfaces, V_w and V_o of tubes.simulate from one
    dense evaluation, each cell clipped to [0, L] and every root's argument
    raised to at least 0 (interface_closed_form), and V_w by simulate's
    anchored long-double prefix sums."""
    from tubeflood.tubes import breakthrough_threshold

    L, S = sys.lengths, sys.sections
    F = pump.F_at(t)
    interfaces = interface_closed_form(L, kappa, F[:, None])
    thr = breakthrough_threshold(L, kappa)
    k = np.searchsorted(thr, F, "right")
    m = k.max()
    top = np.concatenate(([0.0], thr[:m]))
    W = np.concatenate(([0.0], np.cumsum(S[:m] / L[:m], dtype=np.longdouble)))
    D = np.concatenate(([0.0], np.cumsum(np.diff(top) * W[:-1])))
    v_w = (((F - top[k]) * W[k] + D[k]) / kappa).astype(float)
    return interfaces, v_w, interfaces @ S


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


def sensitivity_from_samplers(mu1, mu2, kappa, alpha_max, n_grid):
    """Test oracle: the c of an accepted pair, in the steps of
    analysis.sensitivity_constant, from the four public samplers
    v_w_samples, v_o_samples, water_cut_samples and prefix_integral, each
    oil tail in its own call.

    Each curve is sampled on the uniform grid refined by its atoms'
    lengths +- one ulp; the numerator is a midpoint rule over the union of
    both curves' x samples, the denominator a trapezoid over the union of
    both alpha grids.
    """
    def alphas(mu):
        L = np.array([length for length, _ in mu.atoms])
        jumps = (np.nextafter(L, -np.inf), L, np.nextafter(L, np.inf))
        grid = np.linspace(0.0, alpha_max, n_grid)[1:]
        out = np.unique(np.concatenate([grid, *jumps]))
        return out[(out > 0) & (out <= alpha_max)]

    def samples(mu, a):
        x = forward.v_w_samples(mu, kappa, a) + forward.v_o_samples(mu, kappa, a)
        return np.maximum.accumulate(x), forward.water_cut_samples(mu, kappa, a)

    a1, a2 = alphas(mu1), alphas(mu2)
    (x1, w1), (x2, w2) = samples(mu1, a1), samples(mu2, a2)
    x_top = min(
        sum(forward.endpoint_data(mu, kappa, alpha_max)[:2]) for mu in (mu1, mu2)
    )
    xs = np.unique(np.concatenate([x1[x1 <= x_top], x2[x2 <= x_top], [0.0, x_top]]))
    mid = 0.5 * (xs[:-1] + xs[1:])
    g1, g2 = np.interp(mid, x1, w1), np.interp(mid, x2, w2)
    den = g1 + g2
    ratio = np.divide(np.abs(g1 - g2), den, out=np.zeros_like(den), where=den > 0)
    numerator = float(np.dot(ratio, np.diff(xs)))

    aus = np.unique(np.concatenate([a1, a2, [0.0]]))
    f1, f2 = prefix_integral(mu1, 0, aus), prefix_integral(mu2, 0, aus)
    fden = f1 + f2
    ratio = np.divide(np.abs(f1 - f2), fden, out=np.zeros_like(fden), where=fden > 0)
    return numerator / float(np.trapezoid(ratio, aus))


def closed_tail_integral(alpha, alpha_max, kappa):
    """Antiderivative oracle for T applied to the constant function 1.

    In x = y/alpha with c = 1 - kappa^2:
        integral 1/(x^2 (x^2-c)^{3/2}) dx  =  -(1/c^2) (2x^2-c)/(x sqrt(x^2-c))
    """
    c = 1.0 - kappa * kappa

    def anti(x):
        return -(1.0 / c**2) * (2 * x * x - c) / (x * math.sqrt(x * x - c))

    return kappa * c * (anti(alpha_max / alpha) - anti(1.0))


def dense_operator(op):
    """The n x n matrix an inverse._Operator stands for: its leaves' rows,
    the far parts they carry interpolated and scaled, 0 elsewhere."""
    out = np.zeros((op.n, op.n))
    for lo, hi, leaf, far in op.leaves:
        out[lo:hi, lo:lo + leaf.shape[1]] = leaf
        for plo, j, top, F, B, scale in far:
            out[plo:hi, j:top] = (B @ F) * scale[:, None]
    return out


def far_parts(leaves):
    """The far parts that the leaves of an inverse._Operator or of
    inverse._tree carry, each with its leaf's hi, its span's end, appended."""
    return [(*part, leaf[1]) for leaf in leaves for part in leaf[-1]]


def operator_row(op, i):
    """Row i of the matrix an inverse._Operator stands for, without forming
    the others: its leaf's row and the row of each far part that holds it."""
    out = np.zeros(op.n)
    for lo, hi, leaf, far in op.leaves:
        if lo <= i < hi:
            out[lo:lo + leaf.shape[1]] = leaf[i - lo]
        for plo, j, top, F, B, scale in far:
            if plo <= i < hi:
                out[j:top] = (B[i - plo] @ F) * scale[i - plo]
    return out


def reference_t_matrix(n, kappa):
    """Test oracle: the operator matrix that inverse._unit_t_matrix stands
    for, assembled densely with fresh temporaries per row block and nodes
    clamped to the diagonal.

    Same closed form in x = y/alpha_i (see _unit_t_matrix): over the cell
    [x1, x2], with u = sqrt(x^2 - c), D = x2^2 - x1^2, N = u1^2 + x2^2,
    E = x1 u2 + x2 u1, F = x1 u1 + x2 u2 and K = x1 x2 + u1 u2, the hat
    of node m + 1 takes D N / (x2 u2 E F K) and that of node m takes
    D N / (x1 u1 E F K), times kappa c.  Not cached.
    """
    out = np.zeros((n, n))
    for rows in row_blocks(n, n):
        # row 0, at alpha = 0, stays 0
        rows = slice(max(rows.start, 1), rows.stop)
        out[rows, rows.start:] = _reference_rows(n, kappa, rows.start, rows.stop)
    return out


def reference_t_row(n, kappa, i):
    """Test oracle: row i of reference_t_matrix, with the same bits,
    without forming the others."""
    out = np.zeros(n)
    if i >= 1:
        out[i:] = _reference_rows(n, kappa, i, i + 1)[0]
    return out


def _reference_rows(n, kappa, i0, i1):
    """The rows i0 <= i < i1 (i0 >= 1) of reference_t_matrix over the
    columns from i0 on."""
    c = 1.0 - kappa * kappa
    out = np.zeros((i1 - i0, n - i0))
    i = np.arange(i0, i1, dtype=float)[:, None]
    m = np.maximum(np.arange(i0, n, dtype=float)[None, :], i)
    x = m / i
    u = np.sqrt((m - i) * (m + i) / (i * i) + kappa * kappa)
    x1, x2, u1, u2 = x[:, :-1], x[:, 1:], u[:, :-1], u[:, 1:]
    DN = (m[:, 1:] - m[:, :-1]) * (m[:, 1:] + m[:, :-1]) / (i * i) * (u1 * u1 + x2 * x2)
    EFK = (x1 * u2 + x2 * u1) * (x1 * u1 + x2 * u2) * (x1 * x2 + u1 * u2)
    out[:, :-1] += kappa * c * DN / (x1 * u1 * EFK)
    out[:, 1:] += kappa * c * DN / (x2 * u2 * EFK)
    return out


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
    phi_true = prefix_integral(mu, -1, result.grid)
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
