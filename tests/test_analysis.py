"""Stability bound, sensitivity statistics and ambiguity pairs."""

import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import tubeflood
from tubeflood import analysis
from tubeflood.analysis import (
    ambiguity_pair,
    ambiguity_series_estimate,
    curve_gap,
    run_mc,
    sensitivity_constant,
    sinusoidal_perturbation,
    stability_bound,
    stability_experiment,
    summarize_mc,
)
from tubeflood.errors import ArgumentError, InternalConsistencyError
from tubeflood.forward import build_curve
from tubeflood.inverse import RecoveryConfig
from tubeflood.measures import Measure, random_atoms, scale

from helpers import sensitivity_from_samplers


class TestStabilityBound:
    def test_reference_values(self):
        assert stability_bound(0.5, 10.0) == pytest.approx(18.5, abs=1e-14)
        assert stability_bound(0.5, 0.0) == pytest.approx(3.5, abs=1e-14)
        kappa = 0.999
        expected = (1 + kappa) / (2 * kappa) * (1.0 + (3 + kappa) / (1 + kappa))
        assert stability_bound(kappa, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_alpha_max_and_kappa(self):
        kappas = np.linspace(0.1, 0.9, 9)
        alpha_maxes = np.linspace(0.5, 20, 8)
        for kappa in kappas:
            vals = [stability_bound(kappa, a) for a in alpha_maxes]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        for alpha_max in alpha_maxes:
            vals = [stability_bound(k, alpha_max) for k in kappas]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha_max", [-1.0, math.nan, math.inf])
    def test_bad_alpha_max_rejected(self, alpha_max):
        with pytest.raises(ArgumentError, match="alpha_max"):
            stability_bound(0.5, alpha_max)


class TestPerturbation:
    def test_bounded_and_valid(self):
        curve = build_curve(random_atoms(3, 10), 0.5, 10.0, 801)
        delta0 = 1e-3 * curve.v_max
        bumped = sinusoidal_perturbation(curve, delta0)
        # construction re-validates monotonicity and the Lipschitz bound
        assert np.max(np.abs(bumped.g - curve.g)) <= delta0 * (1 + 1e-12)
        assert bumped.v_max == curve.v_max

    @pytest.mark.parametrize("delta0", [math.inf, math.nan, -1.0])
    def test_bad_delta0_rejected(self, delta0):
        curve = build_curve(random_atoms(3, 10), 0.5, 10.0, 101)
        with pytest.raises(ArgumentError):
            sinusoidal_perturbation(curve, delta0)


class TestStabilityExperiment:
    def test_identical_curves(self):
        curve = build_curve(random_atoms(5, 8), 0.5, 10.0, 801)
        report = stability_experiment(curve, curve, RecoveryConfig(n_grid=301))
        assert report.delta == 0.0
        assert report.v_diff == 0.0
        assert math.isnan(report.ratio)

    def test_perturbed_within_bound(self):
        curve = build_curve(random_atoms(11, 12), 0.5, 10.0, 1001)
        bumped = sinusoidal_perturbation(curve, 1e-3 * curve.v_max)
        report = stability_experiment(curve, bumped, RecoveryConfig(n_grid=501))
        assert report.delta > 0
        assert report.v_diff <= report.bound
        assert report.bound_constant == pytest.approx(18.5)

    def test_scaled_measure_same_declared_alpha_max(self):
        # the scaling family is invisible to the inversion: the rescaled
        # measure traces the same graph, and once the same alpha_max is
        # declared both inputs define the same recovery problem
        from tubeflood.forward import DisplacementCurve

        mu = random_atoms(17, 10)
        curve1 = build_curve(mu, 0.5, 10.0, 2001)
        raw2 = build_curve(scale(mu, 2.0), 0.5, 5.0, 2001)
        curve2 = DisplacementCurve(x=raw2.x, g=raw2.g, alpha_max=10.0, kappa=0.5)
        report = stability_experiment(curve1, curve2, RecoveryConfig(n_grid=501))
        assert report.delta <= 1e-11 * curve1.v_max
        assert report.v_diff <= 1e-8 * curve1.v_max

    def test_violated_bound_raises(self, monkeypatch):
        curve = build_curve(random_atoms(11, 12), 0.5, 10.0, 1001)
        bumped = sinusoidal_perturbation(curve, 1e-3 * curve.v_max)
        monkeypatch.setattr(analysis, "stability_bound", lambda kappa, alpha_max: 1e-300)
        with pytest.raises(InternalConsistencyError, match="stability bound violated"):
            stability_experiment(curve, bumped, RecoveryConfig(n_grid=501))

    def test_mismatched_parameters(self):
        curve1 = build_curve(random_atoms(1, 5), 0.5, 10.0, 201)
        curve2 = build_curve(random_atoms(1, 5), 0.4, 10.0, 201)
        with pytest.raises(ArgumentError):
            stability_experiment(curve1, curve2)


class TestSensitivity:
    def test_identical_measures_rejected(self):
        mu = random_atoms(2, 6)
        with pytest.raises(ArgumentError):
            sensitivity_constant(mu, mu, 0.5, 10.0)

    def test_indistinguishable_measures_rejected(self):
        # the same atoms listed in two orders: the tuples differ, the
        # measure and so both curves and counting functions do not
        mu1 = Measure(atoms=((3.0, 1.0), (5.0, 1.0)))
        mu2 = Measure(atoms=((5.0, 1.0), (3.0, 1.0)))
        assert mu1 != mu2
        with pytest.raises(ArgumentError, match="measures are indistinguishable"):
            sensitivity_constant(mu1, mu2, 0.5, 10.0)

    def test_tiny_atom_shift_is_finite(self):
        mu1 = Measure(atoms=((3.0, 1.0), (5.0, 1.0)))
        mu2 = Measure(atoms=((3.0 + 1e-6, 1.0), (5.0, 1.0)))
        rec = sensitivity_constant(mu1, mu2, 0.5, 10.0)
        assert rec.accepted
        assert math.isfinite(rec.c_value)
        assert rec.c_value > 0

    def test_filter_flag(self):
        mu1 = Measure(atoms=((3.0, 1.0),))
        mu2 = Measure(atoms=((3.0, 10.0),))  # wildly different pore volume
        rec = sensitivity_constant(mu1, mu2, 0.5, 10.0)
        assert not rec.accepted
        assert math.isnan(rec.c_value)
        assert (rec.n1, rec.n2) == (1, 1)
        assert rec.v2_max > 1.1 * rec.v1_max

    def test_direct_call_matches_run_mc(self):
        # run_mc's records are sensitivity_constant's, rejected pairs included,
        # though run_mc filters on the raw draws and builds no Measure for them
        for kappa, alpha_max in itertools.product((0.05, 0.5, 0.95), (10.0, 12.0)):
            records = run_mc(200, seed=11, kappa=kappa, alpha_max=alpha_max, n_grid=401)
            assert {rec.accepted for rec in records} == {True, False}
            for rec in records:
                # run_mc's draws: two atom counts in [5, 50], then the measures
                rng = np.random.default_rng(rec.seed)
                rng.integers(5, 51)
                rng.integers(5, 51)
                mu1 = random_atoms(rng, rec.n1)
                mu2 = random_atoms(rng, rec.n2)
                direct = sensitivity_constant(
                    mu1, mu2, kappa, alpha_max, 401, seed=rec.seed
                )
                # == matches NaNs by identity only: a rejected record holds math.nan
                assert direct == rec
                assert rec.accepted or rec.c_value is math.nan

    # accepted trials of run_mc(1000, 0) on which a trapezoid over the x knots
    # moved c by about 1e-3 or more under ulp noise and missed its n_grid
    # 40001 value by more than 2e-4
    ROUGH_SEEDS = (233, 572, 861, 876)

    @staticmethod
    def mc_pair(seed):
        rng = np.random.default_rng(seed)
        n1, n2 = int(rng.integers(5, 51)), int(rng.integers(5, 51))
        return random_atoms(rng, n1), random_atoms(rng, n2)

    @pytest.mark.parametrize("seed", ROUGH_SEEDS)
    def test_c_under_ulp_noise_in_x(self, monkeypatch, seed):
        mu1, mu2 = self.mc_pair(seed)
        c = sensitivity_constant(mu1, mu2, 0.5, 10.0).c_value
        noise = np.random.default_rng(seed)
        exact = analysis.volumes_and_water_cut
        moved = []

        def noisy(mu, kappa, alphas):
            # +-2 ulp on V_o, and so on the x = V_w + V_o samples
            vw, vo, wc = exact(mu, kappa, alphas)
            shaken = vo + noise.integers(-2, 3, vo.shape) * np.spacing(vo)
            moved.append(np.count_nonzero(vw + shaken != vw + vo))
            return vw, shaken, wc

        monkeypatch.setattr(analysis, "volumes_and_water_cut", noisy)
        jittered = sensitivity_constant(mu1, mu2, 0.5, 10.0).c_value
        assert len(moved) == 2 and min(moved) > 0   # the noise reached both curves' x
        assert abs(jittered / c - 1) <= 1e-12

    def test_one_tail_pass_matches_the_separate_samplers(self):
        # sensitivity_constant takes both oil tails of a measure in one pass;
        # c built from the four public samplers has the same bits
        for kappa, alpha_max in itertools.product((0.05, 0.5, 0.95), (10.0, 12.0)):
            records = run_mc(200, seed=11, kappa=kappa, alpha_max=alpha_max, n_grid=401)
            accepted = [rec for rec in records if rec.accepted]
            assert accepted
            for rec in accepted:
                mu1, mu2 = self.mc_pair(rec.seed)
                assert (rec.n1, rec.n2) == (len(mu1.atoms), len(mu2.atoms))
                want = sensitivity_from_samplers(mu1, mu2, kappa, alpha_max, 401)
                assert rec.c_value == want

    @pytest.mark.parametrize("seed", ROUGH_SEEDS)
    def test_c_against_a_fine_grid(self, seed):
        mu1, mu2 = self.mc_pair(seed)
        c = sensitivity_constant(mu1, mu2, 0.5, 10.0, 2001).c_value
        fine = sensitivity_constant(mu1, mu2, 0.5, 10.0, 40001).c_value
        assert abs(c / fine - 1) <= 1e-5

    def test_zero_measure_rejected(self):
        with pytest.raises(ArgumentError):
            sensitivity_constant(Measure(), random_atoms(1, 3), 0.5, 10.0)

    @pytest.mark.parametrize("n_grid", [1, 0, 100.5, "2001"])
    def test_bad_n_grid_rejected(self, n_grid):
        with pytest.raises(ArgumentError):
            sensitivity_constant(random_atoms(1, 3), random_atoms(2, 3), 0.5, 10.0,
                                 n_grid=n_grid)


class TestRunMc:
    def test_records_in_seed_order(self):
        records = run_mc(10, seed=100, n_grid=401)
        assert [r.seed for r in records] == list(range(100, 110))

    def test_rejected_records_have_nan_c(self):
        records = run_mc(40, seed=0, n_grid=401)
        for rec in records:
            if rec.accepted:
                assert math.isfinite(rec.c_value) and rec.c_value > 0
            else:
                assert math.isnan(rec.c_value)

    def test_reproducible_bit_for_bit(self):
        a = run_mc(12, seed=7, n_grid=401)
        b = run_mc(12, seed=7, n_grid=401)
        assert a == b

    def test_jobs_other_than_one_rejected(self):
        # trials run serially; a jobs value other than 1 is never ignored
        for jobs in (2, 0, 4):
            with pytest.raises(ArgumentError):
                run_mc(3, seed=0, n_grid=401, jobs=jobs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ArgumentError):
            run_mc(3, seed=-1, n_grid=401)

    def test_fractional_counts_rejected(self):
        with pytest.raises(ArgumentError, match="n_trials"):
            run_mc(2.5, 0)
        with pytest.raises(ArgumentError, match="seed"):
            run_mc(3, 0.5, n_grid=401)

    @pytest.mark.parametrize("n_trials, seed, name", [(True, 0, "n_trials"), (1, True, "seed")])
    def test_bool_counts_rejected(self, n_trials, seed, name):
        # bool is an int to Python, but True is no count of trials or seed
        with pytest.raises(ArgumentError, match=name):
            run_mc(n_trials, seed, n_grid=401)

    @pytest.mark.parametrize("n_grid", [1, 100.5])
    def test_bad_n_grid_rejected(self, n_grid):
        with pytest.raises(ArgumentError):
            run_mc(3, seed=0, n_grid=n_grid)

    def test_non_finite_alpha_max_rejected(self):
        with pytest.raises(ArgumentError):
            run_mc(3, seed=0, alpha_max=math.inf)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_atoms_range=(0, 50)), "n_atoms_range"),
            (dict(n_atoms_range=(10, 5)), "n_atoms_range"),
            (dict(n_atoms_range=(5.5, 10)), "n_atoms_range"),
            (dict(n_atoms_range=(5, 10.0)), "n_atoms_range"),
            (dict(n_atoms_range=(True, 5)), "n_atoms_range"),
            (dict(l_range=(2.5, math.inf)), "l_range"),
            (dict(l_range=(math.nan, 5.0)), "l_range"),
            (dict(l_range=(0.0, 5.0)), "l_range"),
            (dict(l_range=(1e-310, 5.0)), "l_range"),
            (dict(l_range=(5.0, 5.0)), "l_range"),
            (dict(l_range=(6.0, 5.0)), "l_range"),
            (dict(l_range=(2.5, 12.0)), "l_range"),
            (dict(l_range=(2.5, 12.0), alpha_max=12.0 - 1e-12), "l_range"),
            (dict(s_range=(0.5, math.inf)), "s_range"),
            (dict(s_range=(0.0, 2.0)), "s_range"),
            (dict(s_range=(-1.0, 2.0)), "s_range"),
            (dict(s_range=(2.0, 1.0)), "s_range"),
            (dict(kappa=0.0), "viscosity ratio"),
            (dict(kappa=1.5), "viscosity ratio"),
            (dict(n_grid=1), "n_grid"),
            (dict(alpha_max=math.nan), "alpha_max"),
            (dict(alpha_max=1e-160), "alpha_max"),
            (dict(alpha_max=1e160), "alpha_max"),
            # past int64, past what a draw could allocate, and just past the cap
            (dict(n_atoms_range=(1, 2**63)), "n_atoms_range"),
            (dict(n_atoms_range=(1, 2**63 - 1)), "n_atoms_range"),
            (dict(n_atoms_range=(1, analysis.MC_MAX_ATOMS + 1)), "n_atoms_range"),
            # draws whose square would be below the normal doubles
            (dict(l_range=(1e-160, 5.0)), "l_range"),
        ],
    )
    def test_arguments_checked_before_the_first_trial(self, monkeypatch, kwargs, match):
        # each raises whatever the seed draws, and before anything is drawn
        def no_draws(*args):
            raise AssertionError("run_mc drew atoms before checking its arguments")

        monkeypatch.setattr(analysis, "draw_atoms", no_draws)
        monkeypatch.setattr(analysis.np.random, "default_rng", no_draws)
        for seed in (0, 1, 2):
            with pytest.raises(ArgumentError, match=match):
                run_mc(3, seed, **kwargs)

    def test_valid_ranges_give_valid_atoms(self):
        # the widest admissible ranges: every draw is an atom, every sum a double
        records = run_mc(20, 0, n_grid=11, n_atoms_range=(1, 1),
                         l_range=(2.0**-511, 10.0), s_range=(1e-300, 1.0))
        assert all(math.isfinite(r.v1_max) and math.isfinite(r.v2_max) for r in records)

    def test_overflowing_moment_rejected(self):
        # S / L past the doubles: the raw sums raise as a Measure's would
        with pytest.raises(ArgumentError, match="overflows a double"):
            run_mc(1, 0, l_range=(1e-150, 2e-150), s_range=(1e300, 1e301))

    def test_measures_built_only_for_accepted_pairs(self, monkeypatch):
        built = []
        post_init = Measure.__post_init__

        def counting_post_init(mu):
            built.append(mu)
            post_init(mu)

        monkeypatch.setattr(Measure, "__post_init__", counting_post_init)
        endpoint_calls, compared = [], []
        endpoint_data = analysis.endpoint_data
        constant = analysis.sensitivity_constant

        def counting_endpoint_data(mu, *args):
            endpoint_calls.append(mu)
            return endpoint_data(mu, *args)

        def counting_constant(*args, seed=None):
            compared.append(seed)
            return constant(*args, seed=seed)

        monkeypatch.setattr(analysis, "endpoint_data", counting_endpoint_data)
        monkeypatch.setattr(analysis, "sensitivity_constant", counting_constant)
        records = run_mc(200, 0)
        accepted = [r.seed for r in records if r.accepted]
        assert accepted and len(accepted) < len(records)
        assert len(built) == 2 * len(accepted)
        assert compared == accepted
        assert len(endpoint_calls) == 2 * len(accepted)
        assert {id(mu) for mu in endpoint_calls} == {id(mu) for mu in built}

    def test_summary(self):
        records = run_mc(40, seed=1, n_grid=401)
        summary = summarize_mc(records)
        assert summary["trials"] == 40
        assert summary["accepted"] == sum(r.accepted for r in records)
        if summary["accepted"]:
            assert summary["c_min"] <= summary["c_median"] <= summary["c_max"]


class TestAmbiguity:
    def test_printed_example_tail_piece(self):
        pair = ambiguity_pair(2.0, 1.2)
        assert pair.mu1.pieces == ((1.0, 2.0, 1.0), (3.0, 4.0, 1.0))
        a, b, rho = pair.mu2.pieces[1]
        assert a == pytest.approx(2.5, rel=1e-15)
        assert b == pytest.approx(10.0 / 3.0, rel=1e-15)
        assert rho == pytest.approx(1.44, rel=1e-15)

    def test_unit_factor_gives_equal_measures(self):
        pair = ambiguity_pair(2.0, 1.0)
        assert pair.mu1 == pair.mu2

    def test_factor_range(self):
        with pytest.raises(ArgumentError):
            ambiguity_pair(2.0, 1.6)  # bound is 1 + 1/2
        with pytest.raises(ArgumentError):
            ambiguity_pair(2.0, 0.0)
        with pytest.raises(ArgumentError):
            ambiguity_pair(1.0, 1.2)

    def test_pair_agreement_validated(self):
        from tubeflood.analysis import AmbiguityPair

        mu1 = Measure(pieces=((1.0, 2.0, 1.0), (3.0, 4.0, 1.0)))
        mu2 = Measure(pieces=((1.0, 1.5, 1.0), (3.0, 4.0, 1.0)))
        with pytest.raises(ArgumentError):
            AmbiguityPair(mu1=mu1, mu2=mu2, alpha0=2.0, k_factor=1.2)

    def test_gap_zero_for_identical_pair(self):
        pair = ambiguity_pair(2.0, 1.0)
        assert curve_gap(pair, 0.5, 2.0, n_grid=801) <= 1e-10

    def test_gap_nondecreasing_in_probe(self):
        pair = ambiguity_pair(2.0, 1.2)
        gaps = [curve_gap(pair, 0.5, p, n_grid=801) for p in (0.5, 1.0, 1.5, 2.0)]
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_printed_example_gap_vs_series(self):
        pair = ambiguity_pair(2.0, 1.2)
        gap = curve_gap(pair, 0.5, 2.0, n_grid=2001)
        estimate = ambiguity_series_estimate(pair, 0.5, 2.0)
        assert estimate == pytest.approx(
            (1 + 0.5) * 4.0 / 2 * abs(1 - 1.44) * math.log(4 / 3), rel=1e-12
        )
        assert estimate / 2 <= gap <= estimate * 2

    def test_probe_beyond_alpha0_rejected(self):
        pair = ambiguity_pair(2.0, 1.2)
        with pytest.raises(ArgumentError):
            curve_gap(pair, 0.5, 2.5)


def test_runs_leave_numpy_ma_unimported():
    # numpy's unique imports numpy.ma, some 15 ms, on its first call in a
    # process; the package sorts and masks in its place, so a fresh
    # process that runs accepted mc trials, merges tubes and compares two
    # recoveries never loads it
    code = textwrap.dedent("""\
    import sys
    from tubeflood.analysis import run_mc, sinusoidal_perturbation, stability_experiment
    from tubeflood.forward import build_curve
    from tubeflood.inverse import RecoveryConfig
    from tubeflood.measures import random_atoms
    from tubeflood.tubes import TubeSystem
    assert any(rec.accepted for rec in run_mc(40, seed=0, n_grid=401))
    assert TubeSystem(((2.0, 1.0), (1.0, 0.5), (2.0, 0.5))).lengths.size == 2
    curve = build_curve(random_atoms(11, 12), 0.5, 10.0, 1001)
    bumped = sinusoidal_perturbation(curve, 1e-3 * curve.v_max)
    stability_experiment(curve, bumped, RecoveryConfig(n_grid=501))
    sys.exit("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(tubeflood.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=300).returncode == 0
