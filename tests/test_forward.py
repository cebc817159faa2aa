"""Continuum forward map and displacement-curve construction."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from tubeflood.errors import ArgumentError, InternalConsistencyError
from tubeflood.forward import (
    DisplacementCurve,
    build_curve,
    curve_readoff,
    endpoint_data,
    v_o_prime_samples,
    v_o_samples,
    v_w_prime_samples,
    v_w_samples,
    volumes_and_water_cut,
    water_cut_samples,
)
from tubeflood.measures import Measure, moment, prefix_integral, scale

from helpers import random_measure

ATOM_11 = Measure(atoms=((1.0, 1.0),))


def at(samples, mu, kappa, alpha):
    """One-point evaluation of a vectorized forward function."""
    return float(samples(mu, kappa, np.array([alpha]))[0])


class TestVolumes:
    def test_v_w_single_atom(self):
        assert at(v_w_samples, ATOM_11, 0.5, 2.0) == pytest.approx(4.5, abs=1e-14)
        assert at(v_w_samples, ATOM_11, 0.5, 0.5) == 0.0
        assert at(v_w_samples, ATOM_11, 0.5, 1.0) == 0.0  # kernel vanishes at y = alpha

    def test_v_o_single_atom(self):
        expected = 2.0 * (1.0 - math.sqrt(0.8125))
        assert at(v_o_samples, ATOM_11, 0.5, 0.5) == pytest.approx(expected, abs=1e-14)
        assert at(v_o_samples, ATOM_11, 0.5, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert at(v_o_samples, ATOM_11, 0.5, 0.0) == 0.0

    def test_zero_measure_allowed_here(self):
        assert at(v_w_samples, Measure(), 0.5, 1.0) == 0.0
        assert at(v_o_samples, Measure(), 0.5, 1.0) == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            mu = random_measure(rng)
            top = mu.support_sup * 1.5
            pore = moment(mu, 1)
            if mu.pieces:
                assert at(v_o_samples, mu, 0.5, top) == pytest.approx(pore, rel=1e-12)
            else:
                assert at(v_o_samples, mu, 0.5, top) == pore

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(15)
        mu = random_measure(rng)
        alphas = np.linspace(0, 12, 100)
        assert np.all(np.diff(v_w_samples(mu, 0.5, alphas)) >= -1e-12)
        vo = v_o_samples(mu, 0.5, alphas)
        inside = alphas[1:] <= mu.support_sup
        assert np.all(np.diff(vo)[inside[: len(np.diff(vo))]] > 0)


class TestDerivatives:
    def test_v_w_prime_atom(self):
        assert at(v_w_prime_samples, ATOM_11, 0.5, 2.0) == pytest.approx(6.0, abs=1e-14)

    def test_v_o_prime_atom(self):
        expected = 1.5 * 0.5 / math.sqrt(0.8125)
        got = at(v_o_prime_samples, ATOM_11, 0.5, 0.5)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_v_o_prime_empty_tail(self):
        assert at(v_o_prime_samples, ATOM_11, 0.5, 2.0) == 0.0

    def test_right_limit_at_atom(self):
        # at the atom location the derivative takes its right limit
        assert at(v_w_prime_samples, ATOM_11, 0.5, 1.0) == pytest.approx(3.0, abs=1e-14)
        assert at(v_o_prime_samples, ATOM_11, 0.5, 1.0) == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(16)
        h = 1e-5
        for _ in range(8):
            mu = random_measure(rng)
            kappa = float(rng.uniform(0.1, 0.9))
            alpha = float(rng.uniform(0.5, 11.0))
            # stay away from atom locations where the derivative jumps
            if mu.atoms and min(abs(alpha - L) for L, _ in mu.atoms) < 10 * h:
                alpha += 20 * h
            pair = np.array([alpha - h, alpha + h])
            fd_w = np.diff(v_w_samples(mu, kappa, pair))[0] / (2 * h)
            fd_o = np.diff(v_o_samples(mu, kappa, pair))[0] / (2 * h)
            scale_w = max(1.0, abs(fd_w))
            scale_o = max(1.0, abs(fd_o))
            assert abs(at(v_w_prime_samples, mu, kappa, alpha) - fd_w) <= 1e-6 * scale_w
            assert abs(at(v_o_prime_samples, mu, kappa, alpha) - fd_o) <= 1e-6 * scale_o


class TestWaterCut:
    def test_before_breakthrough(self):
        assert at(water_cut_samples, ATOM_11, 0.5, 0.5) == 0.0

    def test_after_full_sweep(self):
        assert at(water_cut_samples, ATOM_11, 0.5, 2.0) == 1.0

    def test_two_atom_value(self):
        mu = Measure(atoms=((1.0, 1.0), (2.0, 1.0)))
        wp = at(v_w_prime_samples, mu, 0.5, 1.5)
        op = at(v_o_prime_samples, mu, 0.5, 1.5)
        assert wp == pytest.approx(4.5, abs=1e-14)
        assert op == pytest.approx(2.25 / math.sqrt(4.0 - 0.75 * 2.25), abs=1e-14)
        wc = at(water_cut_samples, mu, 0.5, 1.5)
        assert wc == pytest.approx(wp / (wp + op), abs=1e-15)

    def test_undefined_when_no_flow(self):
        # the water cut is 0/0 without any flow; the samples report 0 there
        assert at(water_cut_samples, Measure(), 0.5, 1.0) == 0.0


class TestVolumesAndWaterCut:
    def test_bits_of_the_separate_samplers(self):
        # both oil tails from one pass, with alphas on the atoms and on the
        # ends of the pieces, where the closed and the open tail differ
        rng = np.random.default_rng(21)
        for kind in ("atoms", "pieces", "mixed") * 4:
            mu = random_measure(rng, kind=kind)
            ends = [L for L, _ in mu.atoms] + [e for a, b, _ in mu.pieces for e in (a, b)]
            alphas = np.sort(np.concatenate([np.linspace(0.0, 10.0, 201), ends]))
            for kappa in (0.05, 0.5, 0.95):
                vw, vo, wc = volumes_and_water_cut(mu, kappa, alphas)
                assert np.array_equal(vw, v_w_samples(mu, kappa, alphas))
                assert np.array_equal(vo, v_o_samples(mu, kappa, alphas))
                assert np.array_equal(wc, water_cut_samples(mu, kappa, alphas))

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite(self, alpha):
        with pytest.raises(ArgumentError):
            volumes_and_water_cut(ATOM_11, 0.5, np.array([0.5, alpha]))


SAMPLES = [v_w_samples, v_o_samples, v_w_prime_samples, v_o_prime_samples,
           water_cut_samples]


class TestAlphaDomain:
    @pytest.mark.parametrize("samples", SAMPLES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite(self, samples, alpha):
        with pytest.raises(ArgumentError):
            samples(ATOM_11, 0.5, np.array([0.5, alpha]))

    @pytest.mark.parametrize("samples", SAMPLES, ids=lambda f: f.__name__)
    def test_scalar_alpha(self, samples):
        # a 0-d alpha gives a 0-d result with the value of the 1-element call
        mu = Measure(atoms=((1.0, 1.0), (2.0, 2.0)), pieces=((0.5, 3.0, 0.7),))
        for alpha in (0.0, 0.75, 1.0, 2.0, 3.5):
            got = samples(mu, 0.5, alpha)
            assert np.shape(got) == ()
            assert got == samples(mu, 0.5, np.array([alpha]))[0]

    def test_atoms_on_nodes_and_at_alpha_max(self):
        # V_o integrates its tail over [alpha, inf) and V_o' over
        # (alpha, inf); V_w' includes the atom at L = alpha (right limit)
        kappa = 0.5
        mu = Measure(atoms=((1.0, 1.0), (2.0, 2.0)))
        alphas = np.linspace(0.0, 2.0, 5)          # nodes 1.0 and alpha_max
        r2 = math.sqrt(4.0 - 0.75)                 # atom 2 seen from alpha = 1
        vo = v_o_samples(mu, kappa, alphas)
        assert vo[2] == pytest.approx((0.5 + 2.0 * (2.0 - r2)) / 0.5, rel=1e-14)
        assert vo[4] == pytest.approx(5.0, rel=1e-14)     # the whole pore volume
        vop = v_o_prime_samples(mu, kappa, alphas)
        assert vop[2] == pytest.approx(1.5 * 2.0 / r2, rel=1e-14)
        assert vop[4] == 0.0
        vwp = v_w_prime_samples(mu, kappa, alphas)
        assert vwp[2] == pytest.approx(3.0, rel=1e-14)
        assert vwp[4] == pytest.approx(12.0, rel=1e-14)
        assert water_cut_samples(mu, kappa, alphas)[4] == 1.0
        # each derivative at an atom equals its value just to the right
        nodes = alphas[1:]
        right = np.nextafter(nodes, np.inf)
        for samples in (v_w_prime_samples, v_o_prime_samples):
            np.testing.assert_allclose(
                samples(mu, kappa, nodes), samples(mu, kappa, right), rtol=1e-12
            )

    def test_bulk_memory_is_bounded(self):
        # atom tails run in row blocks: 1e4 atoms x 2001 alphas would take
        # 160 MB for each dense (alpha, atom) array
        rng = np.random.default_rng(0)
        n = 10_000
        mu = Measure(atoms=tuple(zip(
            rng.uniform(0.5, 10.0, n).tolist(), rng.uniform(0.5, 2.0, n).tolist()
        )))
        alphas = np.linspace(0.0, 10.0, 2001)
        tracemalloc.start()
        try:
            build_curve(mu, 0.3, 10.0, alphas.size)
            water_cut_samples(mu, 0.3, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestBuildCurve:
    def test_single_atom_curve(self):
        curve = build_curve(ATOM_11, 0.5, 2.0, 101)
        assert curve.v_max == pytest.approx(5.5, abs=1e-12)
        assert curve.g_max == pytest.approx(4.5, abs=1e-12)
        # no water before breakthrough: g = 0 wherever x <= V_o(1) = 1
        assert np.all(curve.g[curve.x <= 1.0] == 0.0)

    def test_zero_measure_rejected(self):
        with pytest.raises(ArgumentError):
            build_curve(Measure(), 0.5, 2.0, 11)

    def test_support_beyond_alpha_max(self):
        with pytest.raises(ArgumentError):
            build_curve(ATOM_11, 0.5, 0.9, 11)

    def test_too_few_samples(self):
        with pytest.raises(ArgumentError):
            build_curve(ATOM_11, 0.5, 2.0, 1)

    def test_fractional_sample_count(self):
        with pytest.raises(ArgumentError, match="n_samples"):
            build_curve(ATOM_11, 0.5, 2.0, 2.5)

    def test_lipschitz_and_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            mu = random_measure(rng)
            curve = build_curve(mu, float(rng.uniform(0.1, 0.9)), 10.5, 301)
            dg = np.diff(curve.g)
            dx = np.diff(curve.x)
            assert np.all(dg >= 0)
            assert np.all(dg <= dx * (1 + 1e-9))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(18)
        mu = random_measure(rng)
        base = build_curve(mu, 0.5, 10.5, 501)
        for k in (0.5, 2.0):
            other = build_curve(scale(mu, k), 0.5, 10.5 / k, 501)
            xs = np.unique(np.concatenate([base.x, other.x]))
            xs = xs[xs <= min(base.v_max, other.v_max)]
            dist = np.max(np.abs(base(xs) - other(xs)))
            assert dist <= 1e-9 * base.v_max


class TestCurveType:
    def test_rejects_nonmonotone_total(self):
        with pytest.raises(InternalConsistencyError):
            DisplacementCurve(
                x=np.array([0.0, 1.0, 1.0]), g=np.array([0.0, 0.5, 0.6]),
                alpha_max=1.0, kappa=0.5,
            )

    def test_rejects_decreasing_water(self):
        with pytest.raises(InternalConsistencyError):
            DisplacementCurve(
                x=np.array([0.0, 1.0, 2.0]), g=np.array([0.0, 0.5, 0.4]),
                alpha_max=1.0, kappa=0.5,
            )

    def test_rejects_slope_above_one(self):
        with pytest.raises(InternalConsistencyError):
            DisplacementCurve(
                x=np.array([0.0, 1.0, 2.0]), g=np.array([0.0, 1.1, 1.2]),
                alpha_max=1.0, kappa=0.5,
            )

    @pytest.mark.parametrize("alpha_max", [math.inf, math.nan, 0.0])
    def test_rejects_bad_alpha_max(self, alpha_max):
        with pytest.raises(ArgumentError):
            DisplacementCurve(
                x=np.array([0.0, 1.0]), g=np.array([0.0, 0.5]),
                alpha_max=alpha_max, kappa=0.5,
            )

    def test_rejects_nonzero_origin(self):
        with pytest.raises(InternalConsistencyError):
            DisplacementCurve(
                x=np.array([0.0, 1.0]), g=np.array([0.5, 0.6]),
                alpha_max=1.0, kappa=0.5,
            )

    def test_evaluation_clamps(self):
        curve = build_curve(ATOM_11, 0.5, 2.0, 101)
        assert curve(-1.0) == 0.0
        assert curve(100.0) == curve.g_max


class TestEndpointData:
    def test_single_atom(self):
        vw, vo, vwp = endpoint_data(ATOM_11, 0.5, 2.0)
        assert vw == pytest.approx(4.5, abs=1e-14)
        assert vo == pytest.approx(1.0, abs=1e-14)
        assert vwp == pytest.approx(6.0, abs=1e-14)

    def test_pore_volume_scale_invariant(self):
        for k in (0.5, 2.0):
            _, vo, _ = endpoint_data(scale(ATOM_11, k), 0.5, 2.0 / k)
            assert vo == pytest.approx(1.0, rel=1e-12)

    def test_alpha_max_at_single_atom(self):
        vw, _, _ = endpoint_data(Measure(atoms=((3.0, 2.0),)), 0.4, 3.0)
        assert vw == pytest.approx(0.0, abs=1e-12)

    def test_support_check(self):
        with pytest.raises(ArgumentError):
            endpoint_data(ATOM_11, 0.5, 0.5)

    def test_square_below_the_normal_doubles(self):
        # sqrt of the least normal double is about 1.49e-154
        tiny = math.sqrt(sys.float_info.min)
        for alpha_max in (1e-160, math.nextafter(tiny, 0.0)):
            with pytest.raises(ArgumentError, match="normal double"):
                endpoint_data(Measure(atoms=((alpha_max, 1.0),)), 0.5, alpha_max)
        alpha_max = 1.5e-154
        _, vo, _ = endpoint_data(Measure(atoms=((alpha_max, 1.0),)), 0.5, alpha_max)
        assert vo == alpha_max

    def test_non_finite_alpha_max(self):
        for alpha_max in (math.inf, math.nan):
            with pytest.raises(ArgumentError):
                endpoint_data(ATOM_11, 0.5, alpha_max)

    @pytest.mark.parametrize(
        "mu, alpha_max",
        [
            (ATOM_11, 1e160),                         # alpha_max^2 overflows
            (Measure(atoms=((1.0, 1e300),)), 1e10),   # V_w overflows
            (Measure(), 2.0),                         # v_max = 0
            (Measure(pieces=((1.0, 2.0, 0.0),)), 2.0),
        ],
        ids=["square", "volume", "zero", "zero-density"],
    )
    def test_volume_must_be_a_positive_double(self, mu, alpha_max):
        with pytest.raises(ArgumentError):
            endpoint_data(mu, 0.5, alpha_max)
        with pytest.raises(ArgumentError):
            build_curve(mu, 0.5, alpha_max, 11)


class TestCurveReadoff:
    def test_matches_endpoint_data(self):
        curve = build_curve(ATOM_11, 0.5, 2.0, 101)
        vw, vwp = curve_readoff(curve)
        assert vw == pytest.approx(4.5, abs=1e-12)
        assert vwp == pytest.approx(6.0, abs=1e-12)

    def test_alpha_max_at_atom(self):
        mu = Measure(atoms=((3.0, 2.0),))
        curve = build_curve(mu, 0.5, 3.0, 101)
        vw, vwp = curve_readoff(curve)
        assert vw == pytest.approx(0.0, abs=1e-12)
        # (1+kappa) S / kappa for a lone atom observed at its own length
        assert vwp == pytest.approx(1.5 * 2.0 / 0.5, rel=1e-12)

    def test_paper_literal_skips_normalization(self):
        # As printed, V_w'(alpha_max) = 2 V_w + (1+kappa)/kappa V_o lacks the
        # division by alpha_max: it reads alpha_max times the true slope.
        kappa, alpha_max = 0.5, 2.0
        curve = build_curve(ATOM_11, kappa, alpha_max, 101)
        vw, vwp = curve_readoff(curve)
        vo = at(v_o_samples, ATOM_11, kappa, alpha_max)
        vwp_literal = 2.0 * vw + (1 + kappa) / kappa * vo
        assert vwp == pytest.approx(at(v_w_prime_samples, ATOM_11, kappa, alpha_max), rel=1e-12)
        assert vwp_literal == pytest.approx(vwp * alpha_max, rel=1e-12)

    def test_degenerate_curve(self):
        curve = build_curve(ATOM_11, 0.5, 2.0, 101)
        bad = DisplacementCurve.__new__(DisplacementCurve)
        object.__setattr__(bad, "x", np.array([0.0, 0.0]))
        object.__setattr__(bad, "g", curve.g[:2])
        object.__setattr__(bad, "alpha_max", 2.0)
        object.__setattr__(bad, "kappa", 0.5)
        with pytest.raises(ArgumentError):
            curve_readoff(bad)


def test_harmonic_cdf_samples():
    mu = Measure(atoms=((2.0, 3.0),), pieces=((1.0, 2.0, 1.0),))
    got = prefix_integral(mu, -1, np.array([0.5, 1.5, 2.0, 5.0]))
    assert got[0] == 0.0
    assert got[1] == pytest.approx(math.log(1.5), abs=1e-14)
    assert got[2] == pytest.approx(math.log(2.0), abs=1e-14)  # atom at 2 excluded
    assert got[3] == pytest.approx(math.log(2.0) + 1.5, abs=1e-14)
