"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest terminal-summary hook prints a PASS/FAIL line per criterion;
quantitative observations that are reported rather than gated (the Monte
Carlo maximum, the ambiguity gap) are attached as notes.
"""

import math
import time

import numpy as np
import pytest

from tubeflood import cli
from tubeflood.analysis import (
    ambiguity_pair,
    ambiguity_series_estimate,
    curve_gap,
    run_mc,
    sinusoidal_perturbation,
    stability_bound,
    stability_experiment,
    summarize_mc,
)
from tubeflood.forward import (
    build_curve,
    endpoint_data,
    v_o_samples,
    v_w_samples,
)
from tubeflood.inverse import RecoveryConfig, apply_T, h_of_alpha
from tubeflood.measures import Measure, random_atoms, scale
from tubeflood.tubes import (
    PumpHistory,
    TubeSystem,
    breakthrough_threshold,
    reparam_xi,
    simulate,
)

from conftest import record_note
from helpers import (
    closed_tail_integral,
    pipeline_roundtrip,
    random_measure,
    random_pump,
)


def test_criterion_01_operator_oracle():
    start = time.perf_counter()
    tv = apply_T(np.ones(1001), 0.5, 10.0)
    oracle = closed_tail_integral(5.0, 10.0, 0.5)
    assert abs(tv[500] - oracle) <= 1e-6
    assert abs(tv[10] - closed_tail_integral(0.1, 10.0, 0.5)) <= 1e-12
    assert abs(tv[10] - 1.0 / 3.0) <= 1e-3
    elapsed = time.perf_counter() - start
    record_note(
        "test_criterion_01_operator_oracle",
        f"T(1)(5)={tv[500]:.9f} oracle={oracle:.9f}, {elapsed:.2f}s",
    )
    assert elapsed < 1.0


def test_criterion_02_contraction():
    start = time.perf_counter()
    rng = np.random.default_rng(2202)
    n = 501
    grid = np.linspace(0.0, 10.0, n)
    for kappa in (0.2, 0.5, 0.8):
        q = (1.0 - kappa) / (1.0 + kappa)
        for _ in range(100):
            knots1 = np.sort(rng.uniform(0.0, 10.0, rng.integers(3, 12)))
            knots2 = np.sort(rng.uniform(0.0, 10.0, rng.integers(3, 12)))
            knots1[0], knots1[-1] = 0.0, 10.0
            knots2[0], knots2[-1] = 0.0, 10.0
            v1 = np.interp(grid, knots1, rng.uniform(-1.0, 1.0, knots1.size))
            v2 = np.interp(grid, knots2, rng.uniform(-1.0, 1.0, knots2.size))
            diff = v1 - v2
            ratio = np.max(np.abs(apply_T(diff, kappa, 10.0))) / np.max(np.abs(diff))
            assert ratio <= q + 1e-12
    elapsed = time.perf_counter() - start
    record_note("test_criterion_02_contraction", f"{elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_03_round_trip_recovery():
    start = time.perf_counter()
    mu = Measure(pieces=((3.0, 9.0, 1.0),))
    report = pipeline_roundtrip(
        mu, 0.5, 10.0, n_samples=5001,
        config=RecoveryConfig(n_grid=2001),
        density_window=(3.5, 8.5),
    )
    assert report["v_sup_error"] <= 1e-6 * report["v_max"]
    assert report["phi_linf_error"] <= 1e-3 * report["phi_end"]
    assert report["f_linf_error"] <= 0.05
    elapsed = time.perf_counter() - start
    record_note(
        "test_criterion_03_round_trip_recovery",
        f"V err {report['v_sup_error']:.2e}, Phi err {report['phi_linf_error']:.2e}, "
        f"f err {report['f_linf_error']:.2e}, {elapsed:.1f}s",
    )
    assert elapsed < 60.0


def test_criterion_04_discrete_continuum_equivalence():
    start = time.perf_counter()
    system = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
    mu = Measure(atoms=system.tubes)
    pump = PumpHistory((0.0,), (1.0,))
    t = np.linspace(0.0, 4.0, 1000)
    result = simulate(system, 0.5, pump, t)
    xi = reparam_xi(pump, 0.5, t)
    assert np.max(np.abs(v_w_samples(mu, 0.5, xi) - result.v_w)) <= 1e-8
    assert np.max(np.abs(v_o_samples(mu, 0.5, xi) - result.v_o)) <= 1e-8
    spot = simulate(system, 0.5, pump, np.array([0.0, 0.75]))
    assert abs(spot.v_o[1] - 1.394449) <= 1e-6
    elapsed = time.perf_counter() - start
    record_note("test_criterion_04_discrete_continuum_equivalence", f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_05_breakthrough_law():
    rng = np.random.default_rng(2505)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        system = TubeSystem(
            tuple(zip(rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 2.0, n)))
        )
        kappa = float(rng.uniform(0.1, 0.9))
        pump = random_pump(rng, total_f=60.0)
        result = simulate(system, kappa, pump, np.array([0.0]))
        thresholds = breakthrough_threshold(system.lengths, kappa)
        for t_k, thr in zip(result.breakthrough_times, thresholds):
            assert abs(pump.F_at(t_k) - thr) <= 1e-12 * max(1.0, thr)


def test_criterion_06_lipschitz_and_monotonicity():
    rng = np.random.default_rng(2606)
    for _ in range(100):
        mu = random_measure(rng)
        kappa = float(rng.uniform(0.05, 0.95))
        curve = build_curve(mu, kappa, 10.5, 401)
        dx = np.diff(curve.x)
        dg = np.diff(curve.g)
        assert np.all(dg >= 0)
        assert np.all(dg <= dx * (1.0 + 1e-9))
        assert np.all(curve.g <= curve.x * (1.0 + 1e-12))


def test_criterion_07_scaling_invariance():
    rng = np.random.default_rng(2707)
    for _ in range(20):
        mu = random_measure(rng)
        kappa = float(rng.uniform(0.1, 0.9))
        base = build_curve(mu, kappa, 10.5, 801)
        for k in (0.5, 2.0):
            other = build_curve(scale(mu, k), kappa, 10.5 / k, 801)
            xs = np.unique(np.concatenate([base.x, other.x]))
            xs = xs[xs <= min(base.v_max, other.v_max)]
            assert np.max(np.abs(base(xs) - other(xs))) <= 1e-9 * base.v_max


def test_criterion_08_identity_of_volume_decomposition():
    rng = np.random.default_rng(2808)
    alpha_max = 10.0
    n = 2001
    grid = np.linspace(0.0, alpha_max, n)
    probe = np.linspace(0, n - 1, 101).astype(int)
    for _ in range(20):
        mu = random_measure(rng, alpha_max=alpha_max, hi_frac=0.9)
        assert mu.support_sup <= 0.9 * alpha_max
        kappa = float(rng.uniform(0.2, 0.8))
        vw = v_w_samples(mu, kappa, grid)
        vo = v_o_samples(mu, kappa, grid)
        vw_max, _, vwp_max = endpoint_data(mu, kappa, alpha_max)
        rhs = h_of_alpha(vw_max, vwp_max, kappa, alpha_max, grid) + apply_T(
            vw, kappa, alpha_max
        )
        lhs = vw + vo
        v_max = lhs[-1]
        assert np.max(np.abs(lhs[probe] - rhs[probe])) <= 1e-6 * v_max


def test_criterion_09_stability_bound():
    rng = np.random.default_rng(2909)
    assert stability_bound(0.5, 10.0) == pytest.approx(18.5, abs=1e-12)
    worst = 0.0
    for trial in range(10):
        mu = random_atoms(int(rng.integers(0, 2**32)), int(rng.integers(5, 51)))
        curve = build_curve(mu, 0.5, 10.0, 2001)
        bumped = sinusoidal_perturbation(curve, 1e-3 * curve.v_max)
        report = stability_experiment(curve, bumped, RecoveryConfig(n_grid=1001))
        assert report.v_diff <= 18.5 * report.delta
        worst = max(worst, report.ratio)
    record_note("test_criterion_09_stability_bound", f"worst v_diff/delta {worst:.2f}")


def test_criterion_10_sensitivity_protocol(tmp_path):
    start = time.perf_counter()
    records = run_mc(1000, seed=20260808, kappa=0.5, alpha_max=10.0, n_grid=2001)
    for rec in records:
        if rec.accepted:
            assert math.isfinite(rec.c_value) and rec.c_value > 0
    # reproducibility of the record stream
    assert run_mc(3, seed=20260808, kappa=0.5, alpha_max=10.0, n_grid=2001) == records[:3]
    out = tmp_path / "mc.csv"
    code = cli.main([
        "mc", "--trials", "50", "--seed", "20260808", "--out", str(out),
        "--summary", str(tmp_path / "summary.json"),
    ])
    assert code == 0 and out.exists()
    summary = summarize_mc(records)
    elapsed = time.perf_counter() - start
    record_note(
        "test_criterion_10_sensitivity_protocol",
        f"accepted {summary['accepted']}/1000, c_max={summary['c_max']:.1f}, "
        f"max c >= 5: {summary['max_c_at_least_5']}, {elapsed:.0f}s",
    )
    assert elapsed < 600.0


def test_criterion_11_ambiguity_explorer():
    # equal tails and equal heads: the curves coincide
    identical = ambiguity_pair(2.0, 1.0)
    assert curve_gap(identical, 0.5, 2.0, n_grid=1001) <= 1e-9

    pair = ambiguity_pair(2.0, 1.2)
    gap = curve_gap(pair, 0.5, 2.0, n_grid=2001)
    estimate = ambiguity_series_estimate(pair, 0.5, 2.0)
    assert estimate / 2.0 <= gap <= estimate * 2.0
    record_note(
        "test_criterion_11_ambiguity_explorer",
        f"gap={gap:.4f}, series estimate={estimate:.4f}",
    )
