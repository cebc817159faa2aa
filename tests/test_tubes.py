"""Discrete tube-system model: interface law, breakthroughs, debits."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeflood import measures
from tubeflood.errors import ArgumentError
from tubeflood.forward import v_o_samples, v_w_samples
from tubeflood.tubes import (
    PumpHistory,
    TubeSystem,
    breakthrough_threshold,
    interface_position,
    reparam_xi,
    simulate,
)

from helpers import random_pump


class TestInterfacePosition:
    def test_initial(self):
        assert interface_position(1.0, 0.5, 0.0) == 0.0

    def test_at_threshold(self):
        assert interface_position(1.0, 0.5, 0.75) == 1.0

    def test_partial(self):
        expected = (2.0 - math.sqrt(4.0 - 0.75)) / 0.5
        assert interface_position(2.0, 0.5, 0.75) == pytest.approx(expected, abs=1e-15)

    def test_saturates_beyond_threshold(self):
        assert interface_position(1.0, 0.5, 100.0) == 1.0

    def test_small_drive_keeps_its_digits(self):
        # while F << L^2 the law 2F / (L + sqrt(L^2 - 2 (1-kappa) F)) is
        # exact to rounding; L - sqrt(...) loses about 8 digits here
        L, kappa, F = 1.0, 0.005, 1e-9
        with localcontext() as ctx:
            ctx.prec = 50
            disc = Decimal(L) ** 2 - 2 * (1 - Decimal(kappa)) * Decimal(F)
            exact = float(2 * Decimal(F) / (Decimal(L) + disc.sqrt()))
        assert interface_position(L, kappa, F) == pytest.approx(exact, rel=1e-14, abs=0)
        res = simulate(TubeSystem(((L, 1.0),)), kappa, PumpHistory.constant(F),
                       np.array([0.0, 1.0]))
        assert res.v_o[1] == pytest.approx(exact, rel=1e-14, abs=0)

    def test_negative_pumped_volume(self):
        with pytest.raises(ArgumentError):
            interface_position(1.0, 0.5, -0.1)


class TestBreakthroughThreshold:
    def test_values(self):
        assert breakthrough_threshold(1.0, 0.5) == 0.75
        assert breakthrough_threshold(2.0, 0.5) == 3.0
        assert breakthrough_threshold(1.0, 0.999) == pytest.approx(0.9995)

    def test_positive_length_required(self):
        with pytest.raises(ArgumentError):
            breakthrough_threshold(0.0, 0.5)


class TestPumpHistory:
    def test_constant_integral(self):
        pump = PumpHistory.constant(2.0)
        assert pump.F_at(3.0) == 6.0
        assert pump.F_at(0.0) == 0.0

    def test_piecewise_integral(self):
        pump = PumpHistory((0.0, 1.0, 2.0), (1.0, 0.0, 2.0))
        assert pump.F_at(0.5) == 0.5
        assert pump.F_at(1.7) == 1.0  # zero-rate plateau
        assert pump.F_at(3.0) == 3.0

    def test_inverse_earliest_time(self):
        pump = PumpHistory((0.0, 1.0, 2.0), (1.0, 0.0, 2.0))
        # the value 1.0 is first reached at t=1 and held through the plateau
        assert pump.F_inverse(1.0) == 1.0
        assert pump.F_inverse(2.0) == 2.5
        assert pump.F_inverse(0.0) == 0.0

    def test_inverse_unreachable(self):
        pump = PumpHistory((0.0, 1.0), (1.0, 0.0))
        assert pump.F_inverse(2.0) == math.inf

    def test_inverse_of_an_array(self):
        # F: 0 -> 1 on [0, 1], plateau on [1, 2], 1 -> 3 on [2, 3], then flat
        pump = PumpHistory((0.0, 1.0, 2.0, 3.0), (1.0, 0.0, 2.0, 0.0))
        values = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 3.5])
        expected = [0.0, 0.0, 0.5, 1.0, 2.5, 3.0, math.inf]
        got = pump.F_inverse(values)
        assert got.shape == values.shape
        assert got.tolist() == expected
        assert got.tolist() == [pump.F_inverse(v) for v in values.tolist()]
        assert np.array_equal(pump.F_inverse(values.reshape(7, 1)), got[:, None])

    def test_subnormal_drive_is_never_reached_quietly(self):
        pump = PumpHistory((0.0, 1.0), (1.0, 5e-324))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pump.F_inverse(3.0) == math.inf

    def test_validation(self):
        with pytest.raises(ArgumentError):
            PumpHistory((1.0,), (1.0,))
        with pytest.raises(ArgumentError):
            PumpHistory((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ArgumentError):
            PumpHistory((0.0,), (-1.0,))
        with pytest.raises(ArgumentError):
            PumpHistory((0.0, 1.0), (1.0,))
        # NaN compares False, so it would pass a plain ordering check
        for t in (math.nan, math.inf):
            with pytest.raises(ArgumentError):
                PumpHistory((0.0, t), (1.0, 0.5))
            with pytest.raises(ArgumentError):
                PumpHistory((0.0, 1.0, t), (1.0, 0.5, 2.0))

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            pump = random_pump(rng, total_f=10.0)
            value = rng.uniform(0.0, 8.0)
            t = pump.F_inverse(value)
            assert pump.F_at(t) == pytest.approx(value, rel=1e-13, abs=1e-13)


class TestTubeSystem:
    def test_sorted_on_construction(self):
        sys = TubeSystem(((3.0, 1.0), (1.0, 2.0)))
        assert sys.tubes == ((1.0, 2.0), (3.0, 1.0))

    def test_equal_lengths_merged(self):
        sys = TubeSystem(((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)))
        assert sys.tubes == ((1.0, 3.0), (2.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            TubeSystem(())

    def test_as_measure(self):
        sys = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
        mu = sys.as_measure()
        assert mu.atoms == ((1.0, 1.0), (2.0, 1.0))


class TestSimulate:
    def setup_method(self):
        self.sys = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
        self.pump = PumpHistory.constant(1.0)

    def test_two_tube_closed_form(self):
        t = np.array([0.0, 0.75, 3.0])
        res = simulate(self.sys, 0.5, self.pump, t)
        l2 = (2.0 - math.sqrt(4.0 - 2.0 * 0.5 * 0.75)) / 0.5
        assert res.v_o[1] == pytest.approx(1.0 + l2, abs=1e-12)
        assert res.v_w[1] == pytest.approx(0.0, abs=1e-12)
        assert res.breakthrough_times[0] == pytest.approx(0.75, abs=1e-15)
        assert res.breakthrough_times[1] == pytest.approx(3.0, abs=1e-15)
        # both tubes full: total pore volume
        assert res.v_o[2] == pytest.approx(3.0, abs=1e-12)

    def test_initial_state(self):
        res = simulate(self.sys, 0.5, self.pump, np.array([0.0]))
        assert res.v_o[0] == 0.0
        assert res.v_w[0] == 0.0

    def test_static_pump_is_valid(self):
        pump = PumpHistory.constant(0.0)
        res = simulate(self.sys, 0.5, pump, np.linspace(0, 5, 11))
        assert np.all(res.v_o == 0.0)
        assert np.all(res.interfaces == 0.0)
        assert np.all(np.isinf(res.breakthrough_times))

    def test_grid_validation(self):
        with pytest.raises(ArgumentError):
            simulate(self.sys, 0.5, self.pump, np.array([1.0, 2.0]))
        with pytest.raises(ArgumentError):
            simulate(self.sys, 0.5, self.pump, np.array([]))

    def test_monotone_outputs(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            sys = TubeSystem(tuple(zip(rng.uniform(0.5, 5, n), rng.uniform(0.5, 2, n))))
            pump = random_pump(rng, total_f=40.0)
            res = simulate(sys, 0.5, pump, np.linspace(0, 8, 200))
            assert np.all(np.diff(res.v_w) >= -1e-12)
            assert np.all(np.diff(res.v_o) >= -1e-12)
            assert np.all(np.diff(res.interfaces, axis=0) >= -1e-12)
            assert np.all(res.interfaces <= sys.lengths[None, :] * (1 + 1e-15))

    def test_breakthrough_ordering(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            L = np.sort(rng.uniform(0.5, 6.0, n))
            L += np.arange(n) * 1e-6  # force distinct lengths
            sys = TubeSystem(tuple(zip(L, rng.uniform(0.5, 2, n))))
            pump = random_pump(rng, total_f=100.0)
            res = simulate(sys, 0.5, pump, np.array([0.0]))
            assert np.all(np.diff(res.breakthrough_times) > 0)

    def test_breakthrough_law_exact(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            sys = TubeSystem(tuple(zip(rng.uniform(0.5, 4, n), rng.uniform(0.5, 2, n))))
            pump = random_pump(rng, total_f=50.0)
            res = simulate(sys, 0.5, pump, np.array([0.0]))
            thr = breakthrough_threshold(sys.lengths, 0.5)
            for tk, th in zip(res.breakthrough_times, thr):
                assert pump.F_at(tk) == pytest.approx(th, abs=1e-12 * max(1.0, th))


    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_blocks_match_one_block(self, monkeypatch, rows):
        rng = np.random.default_rng(8)
        n = 40
        sys = TubeSystem(tuple(zip(rng.uniform(0.5, 5, n), rng.uniform(0.5, 2, n))))
        pump = random_pump(rng, total_f=30.0)
        t = np.linspace(0.0, 10.0, 101)            # a last block of 2 at 3 rows
        monkeypatch.setattr(measures, "_BLOCK_CELLS", 101 * n)
        whole = simulate(sys, 0.5, pump, t)
        monkeypatch.setattr(measures, "_BLOCK_CELLS", rows * n)
        blocked = simulate(sys, 0.5, pump, t)
        assert np.array_equal(blocked.interfaces, whole.interfaces)
        assert np.array_equal(blocked.v_o, whole.v_o)
        np.testing.assert_allclose(blocked.v_w, whole.v_w, rtol=1e-14, atol=0.0)

    def test_memory_is_bounded_by_the_result(self):
        # the 24 MB interfaces array is the only (time, tube) array kept
        rng = np.random.default_rng(0)
        n = 10_000
        sys = TubeSystem(tuple(zip(rng.uniform(0.5, 5, n), rng.uniform(0.5, 2, n))))
        pump = PumpHistory((0.0, 2.0), (1.0, 0.5))
        t = np.linspace(0.0, 40.0, 301)
        tracemalloc.start()
        try:
            simulate(sys, 0.5, pump, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


@st.composite
def bundles_and_pumps(draw):
    n = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    sections = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.05, 5.0), min_size=0, max_size=3))
    drives = draw(st.lists(st.floats(0.0, 3.0), min_size=len(gaps) + 1,
                           max_size=len(gaps) + 1))
    breakpoints = np.concatenate([[0.0], np.cumsum(gaps)])
    return (
        TubeSystem(tuple(zip(lengths, sections))),
        PumpHistory(tuple(breakpoints.tolist()), tuple(drives)),
    )


class TestReparametrization:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(bundles_and_pumps(), st.sampled_from([0.005, 0.999]))
    def test_simulate_matches_the_continuum_curves(self, system, kappa):
        sys, pump = system
        t = np.linspace(0.0, 20.0, 41)
        res = simulate(sys, kappa, pump, t)
        mu = sys.as_measure()
        xi = reparam_xi(pump, kappa, t)
        want = v_w_samples(mu, kappa, xi)
        assert np.max(np.abs(res.v_w - want)) <= 1e-9 * np.max(want)
        want = v_o_samples(mu, kappa, xi)
        assert np.max(np.abs(res.v_o - want)) <= 1e-9 * np.max(want)


    def test_xi_values(self):
        pump = PumpHistory.constant(1.0)
        assert reparam_xi(pump, 0.5, 0.75) == pytest.approx(1.0, abs=1e-15)
        assert reparam_xi(pump, 0.5, 0.0) == 0.0
        assert reparam_xi(pump, 0.5, 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_discrete_continuum_equivalence(self):
        # tube volumes equal the continuum curves evaluated at xi(t)
        sys = TubeSystem(((1.0, 1.5), (1.7, 0.7), (2.4, 1.1)))
        mu = sys.as_measure()
        pump = PumpHistory((0.0, 1.0), (0.5, 2.0))
        t = np.linspace(0.0, 6.0, 400)
        res = simulate(sys, 0.5, pump, t)
        xi = reparam_xi(pump, 0.5, t)
        assert np.max(np.abs(v_w_samples(mu, 0.5, xi) - res.v_w)) <= 1e-8
        assert np.max(np.abs(v_o_samples(mu, 0.5, xi) - res.v_o)) <= 1e-8

    def test_pump_invariance_of_curve(self):
        # two drive schedules spanning the same F range trace one curve
        sys = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
        pump1 = PumpHistory.constant(1.0)
        pump2 = PumpHistory((0.0, 0.5, 2.0), (3.0, 0.25, 1.5))
        t1 = np.linspace(0.0, 4.0, 300)
        f_values = pump1.F_at(t1)
        t2 = np.array([pump2.F_inverse(f) for f in f_values])
        res1 = simulate(sys, 0.5, pump1, t1)
        res2 = simulate(sys, 0.5, pump2, t2)
        assert np.max(np.abs(res1.v_w - res2.v_w)) <= 1e-10
        assert np.max(np.abs(res1.v_o - res2.v_o)) <= 1e-10
