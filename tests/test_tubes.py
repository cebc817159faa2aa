"""Discrete tube-system model: interface law, breakthroughs, debits."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubeflood import measures
from tubeflood.errors import ArgumentError
from tubeflood.forward import v_o_samples, v_w_samples
from tubeflood.measures import Measure
from tubeflood.tubes import (
    PumpHistory,
    TubeSystem,
    breakthrough_threshold,
    reparam_xi,
    simulate,
)

from helpers import interface_closed_form, random_pump, water_volume_fsum


def one_tube(L, kappa, F):
    """One tube of length L and section 1, pumped at drive F for unit time."""
    res = simulate(TubeSystem(((L, 1.0),)), kappa, PumpHistory((0.0,), (F,)),
                   np.array([0.0, 1.0]))
    assert res.pumped[1] == F
    return res


class TestInterfacePosition:
    """The interface law, read off one-tube simulate runs that pump F."""

    def test_initial(self):
        assert one_tube(1.0, 0.5, 0.0).interfaces[1, 0] == 0.0

    def test_at_threshold(self):
        assert one_tube(1.0, 0.5, 0.75).interfaces[1, 0] == 1.0

    def test_partial(self):
        expected = (2.0 - math.sqrt(4.0 - 0.75)) / 0.5
        position = one_tube(2.0, 0.5, 0.75).interfaces[1, 0]
        assert position == pytest.approx(expected, abs=1e-15)

    def test_saturates_beyond_threshold(self):
        assert one_tube(1.0, 0.5, 100.0).interfaces[1, 0] == 1.0

    def test_small_drive_keeps_its_digits(self):
        # while F << L^2 the law 2F / (L + sqrt(L^2 - 2 (1-kappa) F)) is
        # exact to rounding; L - sqrt(...) loses about 8 digits here
        L, kappa, F = 1.0, 0.005, 1e-9
        with localcontext() as ctx:
            ctx.prec = 50
            disc = Decimal(L) ** 2 - 2 * (1 - Decimal(kappa)) * Decimal(F)
            exact = float(2 * Decimal(F) / (Decimal(L) + disc.sqrt()))
        res = one_tube(L, kappa, F)
        assert res.interfaces[1, 0] == pytest.approx(exact, rel=1e-14, abs=0)
        assert res.v_o[1] == pytest.approx(exact, rel=1e-14, abs=0)


class TestBreakthroughThreshold:
    def test_values(self):
        assert breakthrough_threshold(1.0, 0.5) == 0.75
        assert breakthrough_threshold(2.0, 0.5) == 3.0
        assert breakthrough_threshold(1.0, 0.999) == pytest.approx(0.9995)

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_sequence_of_lengths(self, kind):
        # a list or a tuple of lengths gives the array of their thresholds
        got = breakthrough_threshold(kind([1.0, 2.0]), 0.5)
        assert isinstance(got, np.ndarray) and got.tolist() == [0.75, 3.0]

    def test_positive_length_required(self):
        with pytest.raises(ArgumentError):
            breakthrough_threshold(0.0, 0.5)
        # NaN fails every comparison, so the check must ask for valid lengths
        for L in (math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ArgumentError, match="tube length"):
                breakthrough_threshold(L, 0.5)


class TestPumpHistory:
    def test_constant_integral(self):
        pump = PumpHistory((0.0,), (2.0,))
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

    @pytest.mark.parametrize("value", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_inverse_of_nan_rejected(self, value):
        pump = PumpHistory((0.0, 1.0), (1.0, 0.5))
        with pytest.raises(ArgumentError, match="NaN"):
            pump.F_inverse(value)

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

    def test_negative_time_rejected(self):
        pump = PumpHistory((0.0,), (1.0,))
        with pytest.raises(ArgumentError, match="t >= 0"):
            pump.F_at(-1.0)
        for t in (math.nan, math.inf, [1.0, math.nan]):
            with pytest.raises(ArgumentError, match="t >= 0"):
                pump.F_at(t)
            with pytest.raises(ArgumentError, match="t >= 0"):
                reparam_xi(pump, 0.5, t)

    def test_subnormal_drive_is_never_reached_quietly(self):
        pump = PumpHistory((0.0, 1.0), (1.0, 5e-324))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pump.F_inverse(3.0) == math.inf

    def test_overflowing_volume_rejected_where_built(self):
        # F reaches 1e310 at the second breakpoint
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="overflows a double"):
                PumpHistory((0.0, 1e300), (1e10, 1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda pump: pump.F_at(10.0),                # c t overflows
            lambda pump: reparam_xi(pump, 0.5, 10.0),
            lambda pump: reparam_xi(pump, 0.5, 1.5),     # only 2 F overflows
        ],
        ids=["F", "xi", "xi-2F"],
    )
    def test_volume_past_the_doubles_raises(self, call):
        pump = PumpHistory((0.0,), (1e308,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="overflows a double"):
                call(pump)

    def test_state_built_at_construction(self):
        pump = PumpHistory((0.0, 1.0, 2.0), (1.0, 0.0, 2.0))
        sys = TubeSystem(((1.0, 1.0), (2.0, 0.5)))
        before = [dict(vars(obj)) for obj in (pump, sys)]
        pump.F_at(np.linspace(0.0, 3.0, 7))
        pump.F_inverse(np.array([0.5, 2.0]))
        simulate(sys, 0.5, pump, np.linspace(0.0, 6.0, 13))
        for obj, state in zip((pump, sys), before):
            assert vars(obj).keys() == state.keys()
            assert all(vars(obj)[key] is value for key, value in state.items())

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

    def test_merge_matches_a_sequential_merge(self):
        # sections of one length add in input order, as a running sum would
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            L = rng.choice(rng.uniform(0.5, 5.0, 6), n).tolist()
            S = rng.uniform(0.1, 2.0, n).tolist()
            merged = []
            for length, section in sorted(zip(L, S), key=lambda t: t[0]):
                if merged and merged[-1][0] == length:
                    merged[-1][1] += section
                else:
                    merged.append([length, section])
            want_L, want_S = np.array(merged).T
            sys = TubeSystem(tuple(zip(L, S)))
            assert np.array_equal(sys.lengths.view(np.uint64), want_L.view(np.uint64))
            assert np.array_equal(sys.sections.view(np.uint64), want_S.view(np.uint64))
            assert sys.tubes == tuple(map(tuple, merged))


class TestSimulate:
    def setup_method(self):
        self.sys = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
        self.pump = PumpHistory((0.0,), (1.0,))

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
        pump = PumpHistory((0.0,), (0.0,))
        res = simulate(self.sys, 0.5, pump, np.linspace(0, 5, 11))
        assert np.all(res.v_o == 0.0)
        assert np.all(res.interfaces == 0.0)
        assert np.all(np.isinf(res.breakthrough_times))

    def test_grid_validation(self):
        with pytest.raises(ArgumentError):
            simulate(self.sys, 0.5, self.pump, np.array([1.0, 2.0]))
        with pytest.raises(ArgumentError):
            simulate(self.sys, 0.5, self.pump, np.array([]))
        with pytest.raises(ArgumentError):       # a NaN time is not sorted
            simulate(self.sys, 0.5, self.pump, np.array([0.0, np.nan, 1.0]))

    def test_overflowing_tube_length(self):
        # the tube laws square L: 1e154 squares to a double, 1e160 does
        # not and is rejected with the system, as an atom length
        t = np.array([0.0, 1.0])
        res = simulate(TubeSystem(((1e154, 1.0),)), 0.5, self.pump, t)
        assert np.all(np.isfinite(res.interfaces)) and np.all(np.isfinite(res.v_w))
        with pytest.raises(ArgumentError, match="normal double"):
            TubeSystem(((1.0, 1.0), (1e160, 1.0)))

    @pytest.mark.parametrize(
        "tubes, breakpoints, c",
        [
            (((1.0, 1.0),), (0.0, 1.0), (1.0, 1e308)),
            # V_w past the doubles: where it is a finite long double (x86),
            # NumPy 2.4 raises at the cast, and a quiet cast leaves it to
            # the finiteness check after it
            (((1.0, 1e308),), (0.0,), (1.0,)),
            # F overflows at the second breakpoint, past the sampled times
            (((1.0, 1.0),), (0.0, 1e300), (1e10, 1.0)),
        ],
        ids=["drive", "section", "later-breakpoint"],
    )
    def test_overflowing_volume(self, tubes, breakpoints, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match="overflows a double"):
                pump = PumpHistory(breakpoints, c)
                simulate(TubeSystem(tubes), 0.5, pump, np.linspace(0.0, 3.0, 5))

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
        assert np.array_equal(blocked.v_w, whole.v_w)

    @pytest.mark.parametrize("kappa", [0.5, 0.05])
    def test_matches_one_dense_evaluation_bit_for_bit(self, monkeypatch, kappa):
        # blocks of 3 rows: the first ones before any breakthrough, the last
        # ones after every one, those between mixed; F = t hits thresholds
        rng = np.random.default_rng(12)
        n = 200
        sys = TubeSystem(tuple(zip(rng.uniform(1.0, 5.0, n), rng.uniform(0.5, 2, n))))
        L, S = sys.lengths, sys.sections
        thr = breakthrough_threshold(L, kappa)
        t = np.unique(np.concatenate([np.linspace(0.0, 1.1 * thr[-1], 61), thr[::20]]))
        pump = PumpHistory((0.0,), (1.0,))
        monkeypatch.setattr(measures, "_BLOCK_CELLS", 3 * n)
        res = simulate(sys, kappa, pump, t)

        F = pump.F_at(t)
        dense = interface_closed_form(L, kappa, F[:, None])
        assert np.array_equal(res.interfaces, dense)
        assert np.array_equal(res.v_o, dense @ S)
        np.testing.assert_allclose(
            res.v_w, water_volume_fsum(L, S, kappa, F), rtol=1e-14, atol=0.0
        )
        blocks = list(measures.row_blocks(t.size, n))
        kinds = {
            "none" if F[rows].max() < thr[0] else
            "all" if F[rows].min() >= thr[-1] else "mixed"
            for rows in blocks
        }
        assert kinds == {"none", "all", "mixed"}

    @pytest.mark.parametrize("kappa", [0.005, 0.5, 0.999])
    def test_water_volume_just_after_each_breakthrough(self, kappa):
        # V_w there is a small difference of large prefix sums unless each
        # term is taken against the last threshold reached
        rng = np.random.default_rng(4)
        n = 300
        sys = TubeSystem(tuple(zip(rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 2, n))))
        L, S = sys.lengths, sys.sections
        t = np.concatenate([[0.0], breakthrough_threshold(L, kappa) * (1 + 1e-9)])
        res = simulate(sys, kappa, PumpHistory((0.0,), (1.0,)), t)
        np.testing.assert_allclose(
            res.v_w, water_volume_fsum(L, S, kappa, res.pumped), rtol=1e-14, atol=0.0
        )

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps,
        reason="np.longdouble is no wider than a double here",
    )
    def test_water_volume_to_an_ulp_on_a_large_bundle(self):
        # the prefix sums over 1e4 tubes lose digits in double precision
        rng = np.random.default_rng(2)
        n = 10_000
        sys = TubeSystem(tuple(zip(rng.uniform(0.5, 10.0, n), rng.uniform(0.5, 2, n))))
        pump = PumpHistory((0.0, 10.0), (1.0, 0.5))
        res = simulate(sys, 0.5, pump, np.linspace(0.0, 160.0, 301))
        ref = water_volume_fsum(sys.lengths, sys.sections, 0.5, res.pumped)
        np.testing.assert_allclose(res.v_w, ref, rtol=1e-15, atol=0.0)

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
    # a subnormal drive: the volumes are subnormal, and one step of them
    # (5e-324) is more than 1e-9 of the largest
    @example((TubeSystem(((1.0, 5.0),)), PumpHistory((0.0,), (5e-324,))), 0.005)
    def test_simulate_matches_the_continuum_curves(self, system, kappa):
        sys, pump = system
        t = np.linspace(0.0, 20.0, 41)
        res = simulate(sys, kappa, pump, t)
        mu = Measure(atoms=sys.tubes)
        xi = reparam_xi(pump, kappa, t)
        # the bounds hold down to a few steps of the subnormal doubles,
        # the spacing of the values compared
        floor = 4 * np.finfo(float).smallest_subnormal
        want = v_w_samples(mu, kappa, xi)
        assert np.max(np.abs(res.v_w - want)) <= 1e-9 * np.max(want) + floor
        want = v_o_samples(mu, kappa, xi)
        assert np.max(np.abs(res.v_o - want)) <= 1e-9 * np.max(want) + floor


    def test_xi_values(self):
        pump = PumpHistory((0.0,), (1.0,))
        assert reparam_xi(pump, 0.5, 0.75) == pytest.approx(1.0, abs=1e-15)
        assert reparam_xi(pump, 0.5, 0.0) == 0.0
        assert reparam_xi(pump, 0.5, 3.0) == pytest.approx(2.0, abs=1e-15)

    def test_discrete_continuum_equivalence(self):
        # tube volumes equal the continuum curves evaluated at xi(t)
        sys = TubeSystem(((1.0, 1.5), (1.7, 0.7), (2.4, 1.1)))
        mu = Measure(atoms=sys.tubes)
        pump = PumpHistory((0.0, 1.0), (0.5, 2.0))
        t = np.linspace(0.0, 6.0, 400)
        res = simulate(sys, 0.5, pump, t)
        xi = reparam_xi(pump, 0.5, t)
        assert np.max(np.abs(v_w_samples(mu, 0.5, xi) - res.v_w)) <= 1e-8
        assert np.max(np.abs(v_o_samples(mu, 0.5, xi) - res.v_o)) <= 1e-8

    def test_pump_invariance_of_curve(self):
        # two drive schedules spanning the same F range trace one curve
        sys = TubeSystem(((1.0, 1.0), (2.0, 1.0)))
        pump1 = PumpHistory((0.0,), (1.0,))
        pump2 = PumpHistory((0.0, 0.5, 2.0), (3.0, 0.25, 1.5))
        t1 = np.linspace(0.0, 4.0, 300)
        f_values = pump1.F_at(t1)
        t2 = np.array([pump2.F_inverse(f) for f in f_values])
        res1 = simulate(sys, 0.5, pump1, t1)
        res2 = simulate(sys, 0.5, pump2, t2)
        assert np.max(np.abs(res1.v_w - res2.v_w)) <= 1e-10
        assert np.max(np.abs(res1.v_o - res2.v_o)) <= 1e-10
