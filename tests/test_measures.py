"""Measure construction and closed-form integration."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeflood.analysis import _jump_aware_alphas, run_mc
from tubeflood.errors import ArgumentError
from tubeflood import measures
from tubeflood.forward import DisplacementCurve, build_curve, check_alpha_max
from tubeflood.inverse import RecoveryConfig, recover_density
from tubeflood.measures import (
    KAPPA_MAX,
    KAPPA_MIN,
    OIL_RATE,
    OIL_VOLUME,
    Measure,
    check_kappa,
    moment,
    prefix_integral,
    random_atoms,
    scale,
    tail_integral,
)

from helpers import random_measure

ATOM_11 = Measure(atoms=((1.0, 1.0),))


def oil_tail(mu, alpha, kappa):
    """Integral of (y - sqrt(y^2 - (1-kappa^2) alpha^2)) dmu(y) over [alpha, inf)."""
    (tail,) = tail_integral(mu, (OIL_VOLUME,), kappa, np.array([alpha]))
    return tail[0]


class TestMoment:
    def test_single_atom_inverse(self):
        assert moment(ATOM_11, -1, 0, 2) == 1.0

    def test_piece_inverse_is_log(self):
        mu = Measure(pieces=((1.0, 2.0, 1.0),))
        assert moment(mu, -1, 0, 10) == pytest.approx(math.log(2), abs=1e-15)

    def test_atom_first_moment(self):
        mu = Measure(atoms=((2.0, 3.0),))
        assert moment(mu, 1, 0, 10) == 6.0

    def test_half_open_buckets(self):
        # atom at L counts in [L, b), not in [a, L)
        assert moment(ATOM_11, 0, 0, 1) == 0.0
        assert moment(ATOM_11, 0, 1, 2) == 1.0

    def test_invalid_exponent(self):
        with pytest.raises(ArgumentError):
            moment(ATOM_11, 2, 0, 1)

    def test_invalid_interval(self):
        with pytest.raises(ArgumentError):
            moment(ATOM_11, 0, 2, 1)

    def test_additive_over_disjoint_intervals(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = random_measure(rng)
            a, b, c = np.sort(rng.uniform(0, 12, 3))
            for p in (-1, 0, 1):
                whole = moment(mu, p, a, c)
                split = moment(mu, p, a, b) + moment(mu, p, b, c)
                # atoms bucket exactly; the sums themselves telescope only up
                # to float associativity
                tol = (1e-12 if mu.pieces else 1e-14) * (1 + abs(whole))
                assert split == pytest.approx(whole, abs=tol)

    def test_atom_bucketing_is_exact(self):
        mu = Measure(atoms=((1.0, 1.0), (2.0, 2.0), (4.0, 0.5)))
        assert moment(mu, 0, 0, 2) == 1.0
        assert moment(mu, 0, 2, 4) == 2.0
        assert moment(mu, 0, 0, 4) == 3.0
        assert moment(mu, 0, 4, math.inf) == 0.5


class TestTailKernel:
    def test_single_atom_value(self):
        expected = 1.0 - math.sqrt(1.0 - 0.75 * 0.25)  # kernel at y=1, alpha=0.5
        got = oil_tail(ATOM_11, 0.5, 0.5)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_vanishes_at_alpha_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert oil_tail(random_measure(rng), 0.0, 0.5) == 0.0

    def test_atom_at_boundary(self):
        # sqrt(1 - (1 - kappa^2)) = kappa
        assert oil_tail(ATOM_11, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_nondecreasing_in_alpha(self):
        # kernel grows pointwise in alpha on any fixed integration range
        # [a, inf); tail_integral ties alpha to its lower limit, so the
        # integral is summed from the OIL_VOLUME atom and cell steps
        def tail_above(mu, alpha, a):
            c0 = 0.75 * alpha * alpha
            L, S = mu._atoms_by_length
            y, w = L[L >= a], S[L >= a]
            s = np.sqrt(y * y - c0)
            total = c0 * float(np.sum(OIL_VOLUME.atom(w, y, s, np.empty_like(s))))
            for pa, pb, rho in mu.pieces:
                if pb > a:
                    step = measures._root_step(max(pa, a), pb, alpha, 0.5)
                    total += rho * float(OIL_VOLUME.cell(step, c0))
            return total

        rng = np.random.default_rng(3)
        for _ in range(10):
            mu = random_measure(rng)
            a = float(rng.uniform(4.0, 9.0))
            alphas = np.linspace(0.0, a, 8)
            vals = [tail_above(mu, al, a) for al in alphas]
            assert vals[0] == 0.0
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kernel", [OIL_VOLUME, OIL_RATE], ids=["volume", "rate"])
    @pytest.mark.parametrize("x", [1e-300, 1.0, 1e154])
    def test_empty_cell_is_exactly_zero(self, kernel, x):
        # a piece outside the tail integrates over an empty cell [x, x],
        # for any lower limit from 0 up to x and, past the piece's end,
        # above it
        lower = np.array([0.0, 0.5, 1.0 - 1e-12, 1.0, 1.2]) * x
        lo = hi = np.full(lower.shape, x)
        for kappa in (KAPPA_MIN, 0.5, KAPPA_MAX):
            c0 = (1.0 - kappa * kappa) * lower * lower
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cells = kernel.cell(measures._root_step(lo, hi, lower, kappa), c0)
            assert cells.tolist() == [0.0] * lower.size

    def test_narrow_cells_keep_their_digits(self):
        # each cell's integrals against 60-digit values of the model
        # (NARROW_CELLS, made by narrow_cell_table below): a bracket of
        # O(1) terms would lose digits as lo / width, up to 3e-7 relative
        # at widths of 1e-8 lo
        lo, hi, alpha, kappa, volume, rate, log = map(np.array, zip(*NARROW_CELLS))
        c0 = (1.0 - kappa * kappa) * alpha * alpha
        step = measures._root_step(lo, hi, alpha, kappa)
        for got, want, bound in (
            (OIL_VOLUME.cell(step, c0), volume, 3e-12),
            (OIL_RATE.cell(step, c0), rate, 2e-15),
            (measures._PIECE_PREFIX[-1](hi, lo), log, 2e-15),
        ):
            assert np.all(np.abs(got / want - 1.0) <= bound)
        # and as the tail of the piece [lo, hi] above alpha <= lo: the root
        # at lo is about kappa alpha, so one formed as lo^2 - fl(c0) would
        # be off by up to eps / kappa^2 relative
        for lo, hi, alpha, kappa, volume, rate, _ in NARROW_CELLS:
            mu = Measure(pieces=((lo, hi, 1.0),))
            got = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, np.array([alpha]))
            for (value,), want, bound in zip(got, (volume, rate), (3e-12, 2e-15)):
                assert abs(value / want - 1.0) <= bound, (lo, hi, alpha, kappa)

    def test_atom_roots_keep_their_digits(self):
        # an atom at its limit or just above it, against 50-digit values
        # of the model (ATOM_ROOTS, made by atom_root_table below), in a
        # leaf's atom-major tile (one atom) and in its limit rows (the atom
        # as two halves): with the root formed as L^2 - c0, the rate tail
        # an ulp above the limit is off by 4.4e-5 relative at kappa 1e-6
        for L, lower, kappa, volume, rate in ATOM_ROOTS:
            for atoms in (((L, 1.0),), ((L, 0.5),) * 2):
                got = tail_integral(
                    Measure(atoms=atoms), (OIL_VOLUME, OIL_RATE), kappa, np.array([lower])
                )
                assert abs(got[0][0] / volume - 1.0) <= 1e-12, (L, lower, kappa)
                if rate:
                    assert abs(got[1][0] / rate - 1.0) <= 1e-12, (L, lower, kappa)
                else:
                    assert got[1][0] == 0.0

    def test_piece_matches_gauss_legendre(self):
        # closed antiderivative vs 16-point Gauss-Legendre per piece, 1e-10.
        # A single panel only resolves pieces of moderate width; wider pieces
        # are covered by the adaptive-quadrature test below.
        from scipy.integrate import fixed_quad

        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.uniform(0.5, 4.0)
            b = a + rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.1, 3.0)
            kappa = rng.uniform(0.05, 0.95)
            alpha = rng.uniform(0.0, 0.8 * a)
            mu = Measure(pieces=((a, b, rho),))
            c0 = (1 - kappa**2) * alpha**2
            quad = rho * fixed_quad(lambda y: y - np.sqrt(y * y - c0), a, b, n=16)[0]
            closed = oil_tail(mu, alpha, kappa)
            assert closed == pytest.approx(quad, abs=1e-10)

    def test_piece_matches_adaptive_quadrature_at_boundary(self):
        # a = alpha, where the integrand has a root-type corner for small kappa
        from scipy.integrate import quad as scipy_quad

        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(0.5, 4.0)
            b = a + rng.uniform(0.2, 5.0)
            rho = rng.uniform(0.1, 3.0)
            kappa = rng.uniform(0.05, 0.95)
            mu = Measure(pieces=((a, b, rho),))
            c0 = (1 - kappa**2) * a * a
            ref, err = scipy_quad(
                lambda y: rho * (y - math.sqrt(y * y - c0)), a, b,
                epsabs=1e-13, epsrel=1e-13,
            )
            closed = oil_tail(mu, a, kappa)
            assert closed == pytest.approx(ref, abs=max(1e-10, 10 * err))


def narrow_cell_table():
    """Rows (lo, hi, alpha, kappa, volume, rate, log) of NARROW_CELLS: the
    integrals of y - sqrt(y^2 - c0) and of 1/sqrt(y^2 - c0) over
    [lo, hi], with c0 = (1-kappa^2) alpha^2, and ln(hi / lo), to 60
    digits with lo, hi, alpha and kappa taken as exact.  Widths from 1e-8
    to 10 of lo; the limit alpha at lo, where the root is smallest, or at
    lo / 2.  Print them with
    PYTHONPATH=src python tests/test_measures.py (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 60
    rows = []
    for lo in (1e-3, 1.0, 7e2):
        for width in (1e-8, 1e-6, 1e-3, 10.0):
            for kappa, at in (
                (1e-6, 1.0), (1e-5, 1.0), (0.005, 1.0), (0.5, 0.5), (0.999, 1.0)
            ):
                hi = lo * (1.0 + width)
                alpha = at * lo
                x, y = mp.mpf(lo), mp.mpf(hi)
                c = (1 - mp.mpf(kappa) ** 2) * mp.mpf(alpha) ** 2

                def root(v):
                    return mp.sqrt(v * v - c)

                def volume(v):
                    return v * v / 2 - (v * root(v) - c * mp.log(v + root(v))) / 2

                rows.append((
                    lo, hi, alpha, kappa, float(volume(y) - volume(x)),
                    float(mp.log((y + root(y)) / (x + root(x)))), float(mp.log(y / x)),
                ))
    return rows


NARROW_CELLS = [
    # (lo, hi, alpha, kappa,
    #  volume, rate, log)
    (0.001, 0.00100000001, 0.001, 1e-06,
     9.999057130626398e-15, 0.00014042489132665855, 9.999999910041973e-09),
    (0.001, 0.00100000001, 0.001, 1e-05,
     9.999050454438686e-15, 0.0001317744683902198, 9.999999910041973e-09),
    (0.001, 0.00100000001, 0.001, 0.005,
     9.949990011574741e-15, 1.9996001519303015e-06, 9.999999910041973e-09),
    (0.001, 0.00100000001, 0.0005, 0.5,
     9.861218019296589e-16, 1.1094003811904338e-08, 9.999999910041973e-09),
    (0.001, 0.00100000001, 0.001, 0.999,
     9.999999909991931e-18, 1.0010009919861683e-08, 9.999999910041973e-09),
    (0.001, 0.001000001, 0.001, 1e-06,
     9.990576900176792e-13, 0.0014132137980100714, 9.999994999076584e-07),
    (0.001, 0.001000001, 0.001, 1e-05,
     9.990576203462298e-13, 0.0014042487993797753, 9.999994999076584e-07),
    (0.001, 0.001000001, 0.001, 0.005,
     9.949017947377346e-13, 0.00019615242146655643, 9.999994999076584e-07),
    (0.001, 0.001000001, 0.0005, 0.5,
     9.861212642471025e-14, 1.1093997096403235e-06, 9.999994999076584e-07),
    (0.001, 0.001000001, 0.001, 0.999,
     9.999994994071598e-16, 1.0010004994055637e-06, 9.999994999076584e-07),
    (0.001, 0.001001, 0.001, 1e-06,
     9.706812885408292e-10, 0.044716633619496154, 0.000999500333083449),
    (0.001, 0.001001, 0.001, 1e-05,
     9.706812863276392e-10, 0.044707634727179424, 0.000999500333083449),
    (0.001, 0.001001, 0.001, 0.005,
     9.701622403889243e-10, 0.03999644524135448, 0.000999500333083449),
    (0.001, 0.001001, 0.0005, 0.5,
     9.855752356766858e-11, 0.0011087182965414484, 0.000999500333083449),
    (0.001, 0.001001, 0.001, 0.999,
     9.994998334166585e-13, 0.0010004998330834494, 0.000999500333083449),
    (0.001, 0.011, 0.001, 1e-06,
     1.2950036268524846e-06, 3.088968904845105, 2.3978952727983707),
    (0.001, 0.011, 0.001, 1e-05,
     1.295003626699581e-06, 3.0889599048948106, 2.3978952727983707),
    (0.001, 0.011, 0.001, 0.005,
     1.294965056318643e-06, 3.083982415308836, 2.3978952727983707),
    (0.001, 0.011, 0.0005, 0.5,
     2.2709371843971748e-07, 2.448070780836189, 2.3978952727983707),
    (0.001, 0.011, 0.001, 0.999,
     2.3969441360825066e-09, 2.398391267649176, 2.3978952727983707),
    (1.0, 1.00000001, 1.0, 1e-06,
     9.999057109812659e-09, 0.00014042489117946607, 9.999999889225291e-09),
    (1.0, 1.00000001, 1.0, 1e-05,
     9.999050433624953e-09, 0.00013177446824339022, 9.999999889225291e-09),
    (1.0, 1.00000001, 1.0, 0.005,
     9.949989990862185e-09, 1.9996001477686296e-06, 9.999999889225291e-09),
    (1.0, 1.00000001, 0.5, 0.5,
     9.861217998768806e-10, 1.1094003788810304e-08, 9.999999889225291e-09),
    (1.0, 1.00000001, 1.0, 0.999,
     9.99999988917525e-12, 1.0010009899024165e-08, 9.999999889225291e-09),
    (1.0, 1.000001, 1.0, 1e-06,
     9.990576900280727e-07, 0.0014132137980174314, 9.999994999180668e-07),
    (1.0, 1.000001, 1.0, 1e-05,
     9.990576203566234e-07, 0.001404248799387135, 9.999994999180668e-07),
    (1.0, 1.000001, 1.0, 0.005,
     9.949017947480888e-07, 0.00019615242146855952, 9.999994999180668e-07),
    (1.0, 1.000001, 0.5, 0.5,
     9.861212642573664e-08, 1.1093997096518707e-06, 9.999994999180668e-07),
    (1.0, 1.000001, 1.0, 0.999,
     9.99999499417568e-10, 1.0010004994159824e-06, 9.999994999180668e-07),
    (1.0, 1.001, 1.0, 1e-06,
     0.0009706812885408042, 0.04471663361949557, 0.0009995003330834232),
    (1.0, 1.001, 1.0, 1e-05,
     0.0009706812863276143, 0.04470763472717884, 0.0009995003330834232),
    (1.0, 1.001, 1.0, 0.005,
     0.0009701622403888994, 0.0399964452413539, 0.0009995003330834232),
    (1.0, 1.001, 0.5, 0.5,
     9.855752356766601e-05, 0.0011087182965414195, 0.0009995003330834232),
    (1.0, 1.001, 1.0, 0.999,
     9.994998334166325e-07, 0.0010004998330834234, 0.0009995003330834232),
    (1.0, 11.0, 1.0, 1e-06,
     1.2950036268524845, 3.088968904845105, 2.3978952727983707),
    (1.0, 11.0, 1.0, 1e-05,
     1.2950036266995808, 3.0889599048948106, 2.3978952727983707),
    (1.0, 11.0, 1.0, 0.005,
     1.294965056318643, 3.083982415308836, 2.3978952727983707),
    (1.0, 11.0, 0.5, 0.5,
     0.22709371843971746, 2.448070780836189, 2.3978952727983707),
    (1.0, 11.0, 1.0, 0.999,
     0.0023969441360825066, 2.398391267649176, 2.3978952727983707),
    (700.0, 700.000007, 700.0, 1e-06,
     0.004899538001214039, 0.00014042489143067458, 9.999999924752427e-09),
    (700.0, 700.000007, 700.0, 1e-05,
     0.004899534729882056, 0.00013177446849397932, 9.999999924752427e-09),
    (700.0, 700.000007, 700.0, 0.005,
     0.0048754951128436915, 1.999600154871217e-06, 9.999999924752427e-09),
    (700.0, 700.000007, 350.0, 0.5,
     0.00048319968365634163, 1.1094003828224123e-08, 9.999999924752427e-09),
    (700.0, 700.000007, 700.0, 0.999,
     4.8999999631041694e-06, 1.0010009934586865e-08, 9.999999924752427e-09),
    (700.0, 700.0006999999999, 700.0, 1e-06,
     0.48953826811065143, 0.0014132137980129454, 9.999994999117227e-07),
    (700.0, 700.0006999999999, 700.0, 1e-05,
     0.48953823397164126, 0.0014042487993826491, 9.999994999117227e-07),
    (700.0, 700.0006999999999, 700.0, 0.005,
     0.4875018794234711, 0.0001961524214673386, 9.999994999117227e-07),
    (700.0, 700.0006999999999, 350.0, 0.5,
     0.048319941948304405, 1.1093997096448324e-06, 9.999994999117227e-07),
    (700.0, 700.0006999999999, 700.0, 0.999,
     0.0004899997547114998, 1.001000499409632e-06, 9.999994999117227e-07),
    (700.0, 700.6999999999999, 700.0, 1e-06,
     475.633831385, 0.044716633619495856, 0.0009995003330834358),
    (700.0, 700.6999999999999, 700.0, 1e-05,
     475.633830300537, 0.044707634727179126, 0.0009995003330834358),
    (700.0, 700.6999999999999, 700.0, 0.005,
     475.3794977905667, 0.039996445241354185, 0.0009995003330834358),
    (700.0, 700.6999999999999, 350.0, 0.5,
     48.29318654815696, 0.0011087182965414336, 0.0009995003330834358),
    (700.0, 700.6999999999999, 700.0, 0.999,
     0.48975491837415613, 0.0010004998330834362, 0.0009995003330834358),
    (700.0, 7700.0, 700.0, 1e-06,
     634551.7771577174, 3.088968904845105, 2.3978952727983707),
    (700.0, 7700.0, 700.0, 1e-05,
     634551.7770827946, 3.0889599048948106, 2.3978952727983707),
    (700.0, 7700.0, 700.0, 0.005,
     634532.877596135, 3.083982415308836, 2.3978952727983707),
    (700.0, 7700.0, 350.0, 0.5,
     111275.92203546155, 2.448070780836189, 2.3978952727983707),
    (700.0, 7700.0, 700.0, 0.999,
     1174.5026266804282, 2.398391267649176, 2.3978952727983707),
]


def atom_root_table():
    """Rows (L, lower, kappa, volume, rate) of ATOM_ROOTS: the tails of one
    atom (L, 1) above lower, its volume kernel c0 / (L + sqrt(L^2 - c0))
    and its rate kernel 1 / sqrt(L^2 - c0) (0 at lower = L, outside the
    open tail), with c0 = (1-kappa^2) lower^2, to 50 digits with L, lower
    and kappa taken as exact.  The limit an ulp below the atom, 1e-12 to
    1e-3 of L below it, on either side of measures._NEAR_ROOT's reach, or
    on it; kappa from 1e-6, where the root is smallest, to 0.1, past the
    reach.  Print them with PYTHONPATH=src python tests/test_measures.py
    (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 50
    rows = []
    for L in (1e-3, 1.0, 7e2):
        for kappa in (1e-6, 1e-5, 0.005, 0.1):
            for lower in (
                math.nextafter(L, 0.0), L * (1.0 - 1e-12), L * (1.0 - 1e-8),
                L * (1.0 - 1e-5), L * (1.0 - 1e-4), L * (1.0 - 1.2e-4),
                L * (1.0 - 1e-3), L,
            ):
                y, k = mp.mpf(L), mp.mpf(kappa)
                c = (1 - k * k) * mp.mpf(lower) ** 2
                root = mp.sqrt(y * y - c)
                rows.append((
                    L, lower, kappa, float(c / (y + root)),
                    float(1 / root) if L > lower else 0.0,
                ))
    return rows


ATOM_ROOTS = [
    (0.001, 0.0009999999999999998, 1e-06,
     0.000999998999783183, 999783230.0696844),
    (0.001, 0.000999999999999, 1e-06,
     0.0009999982679098846, 577337166.8831556),
    (0.001, 0.00099999999, 1e-06,
     0.0009998585751089092, 7070891.073605144),
    (0.001, 0.00099999, 1e-06,
     0.0009955278751135662, 223607.35117963378),
    (0.001, 0.0009999, 1e-06,
     0.000985858217898726, 70712.44577512713),
    (0.001, 0.00099988, 1e-06,
     0.0009845085313478794, 64551.658881168165),
    (0.001, 0.000999, 1e-06,
     0.0009552898221766249, 22366.27203654698),
    (0.001, 0.001, 1e-06,
     0.0009999990000000001, 0.0),
    (0.001, 0.0009999999999999998, 1e-05,
     0.000999989999978316, 99999783.16027081),
    (0.001, 0.000999999999999, 1e-05,
     0.0009999899004883204, 99014688.20654985),
    (0.001, 0.00099999999, 1e-05,
     0.000999858225531854, 7053456.190504812),
    (0.001, 0.00099999, 1e-05,
     0.0009955278640452372, 223606.79776182323),
    (0.001, 0.0009999, 1e-05,
     0.0009858582143991604, 70712.42827642853),
    (0.001, 0.00099988, 1e-05,
     0.0009845085281533395, 64551.64556978912),
    (0.001, 0.000999, 1e-05,
     0.0009552898210717075, 22366.271483811975),
    (0.001, 0.001, 1e-05,
     0.00099999, 0.0),
    (0.001, 0.0009999999999999998, 0.005,
     0.0009949999999999566, 199999.99999826532),
    (0.001, 0.000999999999999, 0.005,
     0.0009949999997999914, 199999.99199965582),
    (0.001, 0.00099999999, 0.005,
     0.000994998000449838, 199920.0499663436),
    (0.001, 0.00099999, 0.005,
     0.0009932918407888319, 149072.19231396995),
    (0.001, 0.0009999, 0.005,
     0.0009850004999999962, 66668.88896294865),
    (0.001, 0.00099988, 0.005,
     0.0009837218059859248, 61431.87623487778),
    (0.001, 0.000999, 0.005,
     0.0009550116679015566, 22227.98564329528),
    (0.001, 0.001, 0.005,
     0.000995, 0.0),
    (0.001, 0.0009999999999999998, 0.1,
     0.0008999999999999979, 9999.999999999785),
    (0.001, 0.000999999999999, 0.1,
     0.0008999999999900994, 9999.999999009931),
    (0.001, 0.00099999999, 0.1,
     0.0008999999010000499, 9999.99010001479),
    (0.001, 0.00099999, 0.1,
     0.0008999010494510562, 9990.114726637883),
    (0.001, 0.0009999, 0.1,
     0.0008990149015943436, 9902.451111975026),
    (0.001, 0.00099988, 0.1,
     0.0008988190445587714, 9883.282833604539),
    (0.001, 0.000999, 0.1,
     0.0008905513362347451, 9136.70359781455),
    (0.001, 0.001, 0.1,
     0.0009, 0.0),
    (1.0, 0.9999999999999999, 1e-06,
     0.9999989998889839, 999888.9961830446),
    (1.0, 0.999999999999, 1e-06,
     0.9999982679619644, 577354.5265640271),
    (1.0, 0.99999999, 1e-06,
     0.9998585751082713, 7070.891041715034),
    (1.0, 0.99999, 1e-06,
     0.995527875113563, 223.60735117947863),
    (1.0, 0.9999, 1e-06,
     0.9858582178987308, 70.71244577515104),
    (1.0, 0.99988, 1e-06,
     0.9845085313478747, 64.55165888114904),
    (1.0, 0.999, 1e-06,
     0.9552898221766228, 22.36627203654603),
    (1.0, 1.0, 1e-06,
     0.999999, 0.0),
    (1.0, 0.9999999999999999, 1e-05,
     0.9999899999888978, 99999.88897788242),
    (1.0, 0.999999999999, 1e-05,
     0.999989900497252, 99014.77577205317),
    (1.0, 0.99999999, 1e-05,
     0.9998582255312177, 7053.456158850016),
    (1.0, 0.99999, 1e-05,
     0.9955278640452342, 223.60679776166808),
    (1.0, 0.9999, 1e-05,
     0.9858582143991652, 70.71242827645244),
    (1.0, 0.99988, 1e-05,
     0.9845085281533348, 64.55164556976999),
    (1.0, 0.999, 1e-05,
     0.9552898210717056, 22.366271483811026),
    (1.0, 1.0, 1e-05,
     0.99999, 0.0),
    (1.0, 0.9999999999999999, 0.005,
     0.9949999999999778, 199.99999999911185),
    (1.0, 0.999999999999, 0.005,
     0.9949999998000094, 199.99999200037743),
    (1.0, 0.99999999, 0.005,
     0.99499800044982, 199.92004996562284),
    (1.0, 0.99999, 0.005,
     0.9932918407888297, 149.07219231392398),
    (1.0, 0.9999, 0.005,
     0.9850005000000007, 66.6688889629687),
    (1.0, 0.99988, 0.005,
     0.9837218059859204, 61.4318762348613),
    (1.0, 0.999, 0.005,
     0.9550116679015547, 22.22798564329435),
    (1.0, 1.0, 0.005,
     0.995, 0.0),
    (1.0, 0.9999999999999999, 0.1,
     0.8999999999999989, 9.99999999999989),
    (1.0, 0.999999999999, 0.1,
     0.8999999999901002, 9.999999999010022),
    (1.0, 0.99999999, 0.1,
     0.899999901000049, 9.999990100014701),
    (1.0, 0.99999, 0.1,
     0.8999010494510561, 9.990114726637868),
    (1.0, 0.9999, 0.1,
     0.8990149015943443, 9.902451111975092),
    (1.0, 0.99988, 0.1,
     0.8988190445587707, 9.883282833604472),
    (1.0, 0.999, 0.1,
     0.8905513362347443, 9.136703597814487),
    (1.0, 1.0, 0.1,
     0.9, 0.0),
    (700.0, 699.9999999999999, 1e-06,
     699.9992998863224, 1428.3394711235985),
    (700.0, 699.9999999993, 1e-06,
     699.9987875818363, 824.7979368000176),
    (700.0, 699.999993, 1e-06,
     699.9010025761636, 10.101272954863719),
    (700.0, 699.993, 1e-06,
     696.8695125794986, 0.3194390731139969),
    (700.0, 699.9300000000001, 1e-06,
     690.1007525291155, 0.10101777967882757),
    (700.0, 699.9159999999999, 1e-06,
     689.1559719435089, 0.09221665554446913),
    (700.0, 699.3, 1e-06,
     668.702875523635, 0.031951817195064736),
    (700.0, 700.0, 1e-06,
     699.9993, 0.0),
    (700.0, 699.9999999999999, 1e-05,
     699.9929999886314, 142.85691084375355),
    (700.0, 699.9999999993, 1e-05,
     699.9929303495275, 141.44970870711603),
    (700.0, 699.999993, 1e-05,
     699.9007578722252, 10.076365979060922),
    (700.0, 699.993, 1e-05,
     696.8695048316685, 0.31943828251712464),
    (700.0, 699.9300000000001, 1e-05,
     690.1007500794196, 0.10101775468068673),
    (700.0, 699.9159999999999, 1e-05,
     689.1559697073309, 0.09221663652821335),
    (700.0, 699.3, 1e-05,
     668.7028747501929, 0.0319518164054433),
    (700.0, 700.0, 1e-05,
     699.993, 0.0),
    (700.0, 699.9999999999999, 0.005,
     696.4999999999773, 0.2857142857124296),
    (700.0, 699.9999999993, 0.005,
     696.4999998600096, 0.28571427428649276),
    (700.0, 699.999993, 0.005,
     696.4986003148846, 0.28560007138032295),
    (700.0, 699.993, 0.005,
     695.3042885521837, 0.21296027473431223),
    (700.0, 699.9300000000001, 0.005,
     689.5003500000042, 0.09524126994713197),
    (700.0, 699.9159999999999, 0.005,
     688.6052641901409, 0.08775982319263358),
    (700.0, 699.3, 0.005,
     668.5081675310873, 0.03175426520470521),
    (700.0, 700.0, 0.005,
     696.5, 0.0),
    (700.0, 699.9999999999999, 0.1,
     629.9999999999989, 0.014285714285714055),
    (700.0, 699.9999999993, 0.1,
     629.9999999930703, 0.01428571428430006),
    (700.0, 699.999993, 0.1,
     629.9999307000348, 0.014285700142878251),
    (700.0, 699.993, 0.1,
     629.9307346157395, 0.014271592466625568),
    (700.0, 699.9300000000001, 0.1,
     629.3104311160415, 0.014146358731393098),
    (700.0, 699.9159999999999, 0.1,
     629.173331191139, 0.014118975476577712),
    (700.0, 699.3, 0.1,
     623.3859353643206, 0.013052433711163483),
    (700.0, 700.0, 0.1,
     630.0, 0.0),
]


# 30 equal limits an ulp below the shortest of 40 atoms (L, 1), L = 1.00,
# 1.01, ..., 1.39: a node of zero width, which the tree cuts
CUT_ATOMS = tuple((1.0 + k / 100, 1.0) for k in range(40))
CUT_LOWER = math.nextafter(1.0, 0.0)


def cut_root_table():
    """Rows (kappa, volume, rate) of CUT_ROOTS: both tails of the atoms
    CUT_ATOMS above CUT_LOWER, the sums of c0 / (L + sqrt(L^2 - c0)) and
    1 / sqrt(L^2 - c0) with c0 = (1-kappa^2) CUT_LOWER^2, to 50 digits
    with L, CUT_LOWER and kappa taken as exact; kappa 1e-6, 1e-5 and
    1e-3, within measures._NEAR_ROOT's reach.  Print them with
    PYTHONPATH=src python tests/test_measures.py (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 50
    rows = []
    for kappa in (1e-6, 1e-5, 1e-3):
        k = mp.mpf(kappa)
        c = (1 - k * k) * mp.mpf(CUT_LOWER) ** 2
        roots = [(mp.mpf(L), mp.sqrt(mp.mpf(L) ** 2 - c)) for L, _ in CUT_ATOMS]
        rows.append((
            kappa, float(sum(c / (y + root) for y, root in roots)),
            float(sum(1 / root for _, root in roots)),
        ))
    return rows


CUT_ROOTS = [
    (1e-06,
     23.083138323303572, 999964.8635125301),
    (1e-05,
     23.08312931964805, 100075.75630732911),
    (0.001,
     23.082101389885676, 1075.8669373531905),
]


class TestScale:
    def test_atom_example(self):
        assert scale(Measure(atoms=((2.0, 3.0),)), 2.0) == Measure(atoms=((1.0, 6.0),))

    def test_piece_example(self):
        got = scale(Measure(pieces=((1.0, 2.0, 1.0),)), 2.0)
        assert got == Measure(pieces=((0.5, 1.0, 4.0),))

    def test_identity(self):
        mu = random_measure(np.random.default_rng(1))
        assert scale(mu, 1.0) == mu

    def test_composition(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng)
        k1, k2 = 0.7, 2.3
        twice = scale(scale(mu, k1), k2)
        once = scale(mu, k1 * k2)
        for (l1, s1), (l2, s2) in zip(twice.atoms, once.atoms):
            assert l1 == pytest.approx(l2, rel=1e-12)
            assert s1 == pytest.approx(s2, rel=1e-12)
        for p1, p2 in zip(twice.pieces, once.pieces):
            assert p1 == pytest.approx(p2, rel=1e-12)

    def test_pore_volume_invariant(self):
        rng = np.random.default_rng(4)
        for k in (0.5, 2.0, 3.7):
            mu = random_measure(rng)
            pv = moment(mu, 1)
            assert moment(scale(mu, k), 1) == pytest.approx(pv, rel=1e-12)

    def test_total_mass_gains_factor_k(self):
        mu = random_measure(np.random.default_rng(6))
        assert moment(scale(mu, 2.0), 0) == pytest.approx(2.0 * moment(mu, 0), rel=1e-12)

    def test_invalid_factor(self):
        with pytest.raises(ArgumentError):
            scale(ATOM_11, 0.0)



class TestRandomAtoms:
    def test_deterministic(self):
        assert random_atoms(7, 3) == random_atoms(7, 3)

    def test_ranges(self):
        mu = random_atoms(7, 1000)
        L = np.array([a[0] for a in mu.atoms])
        S = np.array([a[1] for a in mu.atoms])
        assert np.all((L >= 2.5) & (L < 10.0))
        assert np.all((S >= 0.5) & (S < 2.0))
        assert mu.support_sup < 10.0

    def test_errors(self):
        with pytest.raises(ArgumentError):
            random_atoms(0, 0)
        with pytest.raises(ArgumentError):
            random_atoms(0, 2.5)
        with pytest.raises(ArgumentError):
            random_atoms(0, True)
        with pytest.raises(ArgumentError):
            random_atoms(0, 3, L_range=(5.0, 5.0))
        bad_lengths = [(2.5, math.inf), (math.nan, 5.0), (1e-310, 5.0), (0.0, 5.0),
                       (1e-160, 5.0), (2.5, 2.0**512)]
        for bounds in bad_lengths:
            with pytest.raises(ArgumentError, match="L_range"):
                random_atoms(0, 3, L_range=bounds)
        for bounds in [(0.5, math.inf), (-math.inf, 2.0), (2.0, 0.5)]:
            with pytest.raises(ArgumentError, match="S_range"):
                random_atoms(0, 3, S_range=bounds)


class TestMeasureType:
    def test_zero_measure_representable(self):
        mu = Measure()
        assert moment(mu, 0) == 0.0
        assert mu.support_sup == 0.0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            Measure(atoms=((0.0, 1.0),))
        with pytest.raises(ArgumentError):
            Measure(atoms=((1.0, -1.0),))
        with pytest.raises(ArgumentError):
            Measure(pieces=((0.0, 1.0, 1.0),))
        with pytest.raises(ArgumentError):
            Measure(pieces=((2.0, 1.0, 1.0),))
        with pytest.raises(ArgumentError):
            Measure(pieces=((1.0, 2.0, -0.5),))

    def test_first_bad_atom_raises(self):
        # the atoms are checked as arrays, and the first bad one in input
        # order raises, its length before its section; NaN is bad in both
        good = (1.0, 1.0)
        for atoms, got in (
            ((good, (0.0, -1.0)), "length .* got 0.0"),
            ((good, (2.0, math.nan), (math.nan, 1.0)), "section .* got nan"),
            ((good, (math.nan, 1.0), (2.0, -1.0)), "length .* got nan"),
            ((good, (2.0, math.inf), (1e160, 1.0)), "section .* got inf"),
            ((good, (1e-160, math.inf)), "length .* got 1e-160"),
        ):
            with pytest.raises(ArgumentError, match=got):
                Measure(atoms=atoms)

    def test_atom_length_edges(self):
        # an atom length's square must be a finite normal double
        least, top = 2.0**-511, 2.0**512
        for L in (math.nextafter(least, 0.0), top, 1e-160, 1e160):
            with pytest.raises(ArgumentError, match="normal double"):
                Measure(atoms=((1.0, 1.0), (L, 1.0)))
        for L in (least, math.nextafter(top, 0.0)):
            mu = Measure(atoms=((L, 1.0),))
            assert mu.support_sup == L and moment(mu, 1) == L

    def test_support_sup(self):
        mu = Measure(atoms=((3.0, 1.0),), pieces=((1.0, 7.5, 0.2),))
        assert mu.support_sup == 7.5

    def test_state_built_at_construction(self):
        mu = Measure(atoms=((3.0, 1.0), (2.0, 0.5)), pieces=((1.0, 7.5, 0.2),))
        state = dict(vars(mu))
        assert {"_atoms_by_length", "_prefix", "support_sup"} <= state.keys()
        for p in (-1, 0, 1):
            moment(mu, p, 1.5, 4.0)
        prefix_integral(mu, 1, np.linspace(0.0, 8.0, 9))
        oil_tail(mu, 4.0, 0.5)
        assert vars(mu).keys() == state.keys()
        assert all(vars(mu)[key] is value for key, value in state.items())

    @pytest.mark.parametrize(
        "atoms, pieces",
        [
            (((1e-10, 1e300),), ()),          # S / L overflows
            (((1e150, 1e200),), ()),          # S * L overflows
            (((1.0, 1e308), (2.0, 1e308)), ()),   # the sum of S overflows
            (((1e-320, 1e-320),), ()),        # a subnormal length
            ((), ((1e-320, 1.0, 1.0),)),      # a subnormal piece start
            ((), ((1e-300, 1e10, 1.0),)),     # the piece's b / a overflows
            ((), ((1.0, 1e200, 1.0),)),       # the piece's b^2 overflows
            ((), ((1.0, 2.0, 1e308), (3.0, 4.0, 1e308))),   # the pieces' mass
        ],
        ids=["inverse", "first", "mass", "subnormal-atom", "subnormal-piece",
             "piece-inverse", "piece-first", "piece-mass"],
    )
    def test_rejected_where_built(self, atoms, pieces):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError):
                Measure(atoms=atoms, pieces=pieces)

    def test_finite_moments(self):
        mu = random_measure(np.random.default_rng(8))
        assert math.isfinite(moment(mu, -1))
        assert math.isfinite(moment(mu, 1))



class TestCheckKappa:
    def test_bounds(self):
        assert check_kappa(0.999) == 0.999
        assert check_kappa(1e-6) == 1e-6
        for bad in (0.9995, 0.0, -0.2, math.nan, 1e-9):
            with pytest.raises(ArgumentError):
                check_kappa(bad)


# every entry point that takes a float argument, through measures.check_number
NUMBER_ARGUMENTS = {
    "RecoveryConfig.alpha_min": lambda v: RecoveryConfig(alpha_min=v),
    "recover_density.alpha_min": lambda v: recover_density(
        np.linspace(0, 1, 101), np.linspace(0, 1, 101) ** 2, 0.5, v),
    "check_kappa": check_kappa,
    "check_alpha_max": check_alpha_max,
    "DisplacementCurve.alpha_max": lambda v: DisplacementCurve([0.0, 1.0], [0.0, 0.5], v, 0.5),
    "DisplacementCurve.kappa": lambda v: DisplacementCurve([0.0, 1.0], [0.0, 0.5], 1.0, v),
    "build_curve.alpha_max": lambda v: build_curve(Measure(atoms=((4.0, 1.0),)), 0.5, v, 11),
    "build_curve.kappa": lambda v: build_curve(Measure(atoms=((4.0, 1.0),)), v, 10.0, 11),
    "run_mc.alpha_max": lambda v: run_mc(1, 0, 0.5, v),
    "run_mc.kappa": lambda v: run_mc(1, 0, v),
}


@pytest.mark.parametrize("entry", sorted(NUMBER_ARGUMENTS))
@pytest.mark.parametrize("bad", [None, "0.5", True, np.True_], ids=repr)
def test_every_number_argument_refuses_a_non_number(entry, bad):
    # no TypeError or bare ValueError from float() or a comparison, and a
    # bool, which Python counts as an int, is not a number here either
    with pytest.raises(ArgumentError, match="must be a number"):
        NUMBER_ARGUMENTS[entry](bad)


# the kernel tuples a tail pass takes: each kernel alone, and both at once
KERNELS = [(OIL_VOLUME,), (OIL_RATE,), (OIL_VOLUME, OIL_RATE)]
KERNEL_IDS = ["volume", "rate", "both"]


def random_atom_measure(rng, n):
    # lengths on a coarse lattice so that ties and exact node hits occur
    L = rng.integers(1, 40, n) / 4.0
    return Measure(atoms=tuple(zip(L.tolist(), rng.uniform(0.5, 2.0, n).tolist())))


def dense_tail(mu, kernel, kappa, lower):
    """Unblocked reference: one (alpha, atom) array holding every cell, in
    the tree's cell formula: the root from L^2 - c0, or from its parts
    (L - lo)(L + lo) + (kappa lo)^2 where the atom lies near its limit
    (measures._NEAR_ROOT), and the volume kernel summed as c0 times the
    sum of S / (L + root); ATOM_ROOTS and CUT_ROOTS check that formula
    against the model."""
    L = np.array([a[0] for a in mu.atoms])
    S = np.array([a[1] for a in mu.atoms])
    order = np.argsort(L, kind="stable")
    L, S = L[order][None, :], S[order][None, :]
    c0 = (1.0 - kappa * kappa) * lower * lower
    lo, c = lower[:, None], c0[:, None]
    in_tail = L >= lo if kernel is OIL_VOLUME else L > lo
    disc = L**2 - c
    if kappa * kappa < measures._NEAR_ROOT:
        reach = 1.0 + (measures._NEAR_ROOT - kappa * kappa) / 2.0
        disc = np.where(L < lo * reach, (L - lo) * (L + lo) + (kappa * lo) ** 2, disc)
    disc = np.where(in_tail, disc, 1.0)
    if kernel is OIL_VOLUME:
        return c0 * np.sum(np.where(in_tail, S / (L + np.sqrt(disc)), 0.0), axis=1)
    return np.sum(np.where(in_tail, S / np.sqrt(disc), 0.0), axis=1)


def assert_rows_close(got, want, rtol=1e-14):
    """Each row within rtol of the dense sum, relative, and exactly 0 where
    the dense sum is."""
    assert np.all(np.abs(got - want) <= rtol * want), np.max(np.abs(got - want) / want)


def atom_tree_case(rng, n_atoms, n_alphas, scale=1.0):
    """n_atoms atoms with lengths uniform in [0.5, 10] scale, and ascending
    limits over [0, 11] scale."""
    L = rng.uniform(0.5, 10.0, n_atoms) * scale
    mu = Measure(atoms=tuple(zip(L.tolist(), rng.uniform(0.5, 2.0, n_atoms).tolist())))
    return mu, np.linspace(0.0, 11.0 * scale, n_alphas)


class TestTailIntegral:
    @pytest.mark.parametrize(
        "block_cells, n_atoms, n_alphas, lower, kappa",
        [
            # one leaf
            pytest.param(None, 50, 20, "ascending", 0.5, id="None-50-20"),
            # 1000 atoms: a tree of the limits, cut into leaves
            pytest.param(None, 1000, 100, "ascending", 0.5, id="None-1000-100"),
            # more atoms than cells: one leaf, one row per block
            pytest.param(None, 40000, 3, "ascending", 0.5, id="None-40000-3"),
            # rows of 3, a last block of 1
            pytest.param(64, 20, 10, "ascending", 0.5, id="64-20-10"),
            # one row per block
            pytest.param(16, 40, 5, "ascending", 0.5, id="16-40-5"),
            # limits in random order: a block's range spans most atoms
            pytest.param(None, 1000, 100, "unsorted", 0.5, id="None-1000-100-unsorted"),
            pytest.param(64, 20, 10, "unsorted", 0.5, id="64-20-10-unsorted"),
            pytest.param(16, 40, 5, "unsorted", 0.5, id="16-40-5-unsorted"),
            # every limit exactly on an atom length, where the kernels differ
            pytest.param(None, 1000, 100, "on_atoms", 0.5, id="None-1000-100-on-atoms"),
            pytest.param(64, 20, 10, "on_atoms", 0.5, id="64-20-10-on-atoms"),
            pytest.param(16, 40, 5, "on_atoms", 0.5, id="16-40-5-on-atoms"),
            # and at the smallest kappa, where the root of an atom at its
            # limit is smallest, and at the largest
            *(
                pytest.param(
                    cells, n, m, "on_atoms", kappa,
                    id=f"{cells}-{n}-{m}-{bound}-kappa-on-atoms",
                )
                for kappa, bound in ((KAPPA_MIN, "min"), (KAPPA_MAX, "max"))
                for cells, n, m in ((None, 1000, 100), (64, 20, 10), (16, 40, 5))
            ),
            # atom counts from one to past a hundred, with blocks of 256
            # cells and limits in every order
            *(
                pytest.param(cells, n, 60, lower, 0.5, id=f"{cells}-{n}-60-{lower}")
                for n in (1, 7, 8, 9, 17, 127, 128, 129)
                for cells in (None, 256)
                for lower in ("ascending", "unsorted", "on_atoms")
            ),
        ],
    )
    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_blocks_match_dense_bit_for_bit(
        self, monkeypatch, kernels, block_cells, n_atoms, n_alphas, lower, kappa
    ):
        if block_cells is not None:
            monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(n_atoms)
        mu = random_atom_measure(rng, n_atoms)
        alphas = np.linspace(0.0, 10.0, n_alphas)
        if lower == "unsorted":
            alphas = rng.permutation(alphas)
        elif lower == "on_atoms":   # every limit on an atom length
            alphas = np.sort(rng.choice([L for L, _ in mu.atoms], n_alphas))
        got = tail_integral(mu, kernels, kappa, alphas)
        for tail, kernel in zip(got, kernels, strict=True):
            want = dense_tail(mu, kernel, kappa, alphas)
            # below 8 atoms np.sum adds in turn, as a leaf does; from 8 on
            # it adds in lanes, and the tree's far fields interpolate
            if n_atoms < 8:
                assert np.array_equal(tail, want)
            else:
                assert_rows_close(tail, want)

    @pytest.mark.parametrize("kernel", [OIL_VOLUME, OIL_RATE], ids=["volume", "rate"])
    def test_evaluates_only_the_live_cells(self, kernel):
        # ascending limits over the atoms' range: the cells below a block's
        # smallest limit never reach the kernel, about half of them here,
        # and the far fields and the cuts take 20 per atom of a node, so
        # the tree evaluates 0.07 N M
        rng = np.random.default_rng(10)
        n_atoms, n_alphas = 4000, 2001
        L, S = rng.uniform(0.5, 10.0, n_atoms), rng.uniform(0.5, 2.0, n_atoms)
        mu = Measure(atoms=tuple(zip(L.tolist(), S.tolist())))
        alphas = np.linspace(0.0, 10.0, n_alphas)
        cells = []

        def atom(w, y, s, out):
            cells.append(out.size)
            return kernel.atom(w, y, s, out)

        (got,) = tail_integral(mu, (kernel._replace(atom=atom),), 0.5, alphas)
        assert np.array_equal(got, tail_integral(mu, (kernel,), 0.5, alphas)[0])
        assert sum(cells) <= 0.1 * n_atoms * n_alphas

    @pytest.mark.parametrize("n_atoms", [1, 8, 50, 128, 129, 1000, 5000])
    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_tree_ignores_the_block_size(self, monkeypatch, kernels, n_atoms):
        # the tree's leaves and chunks are fixed apart from _BLOCK_CELLS,
        # so its values do not follow the block size
        rng = np.random.default_rng(n_atoms)
        mu, alphas = atom_tree_case(rng, n_atoms, 2001)
        alphas = np.concatenate([alphas, [L for L, _ in mu.atoms[::7]]])
        runs = []
        for block_cells in (None, 256, 4096):
            if block_cells is not None:
                monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
            runs.append(tail_integral(mu, kernels, 0.5, alphas))
        for run in runs[1:]:
            for got, want in zip(run, runs[0], strict=True):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_tree_permutes_with_the_limits(self, kernels):
        # the limits are sorted once, so a permutation of them permutes
        # the values, bit for bit
        rng = np.random.default_rng(17)
        for n_atoms in (2000, 50):
            mu, alphas = atom_tree_case(rng, n_atoms, 3001)
            perm = rng.permutation(alphas.size)
            got = tail_integral(mu, kernels, 0.5, alphas[perm])
            for tail, want in zip(got, tail_integral(mu, kernels, 0.5, alphas), strict=True):
                assert np.array_equal(tail, want[perm])

    @pytest.mark.parametrize("kappa", [KAPPA_MIN, 0.5, KAPPA_MAX])
    def test_tree_duplicate_and_zero_limits(self, kappa):
        # runs of equal limits make nodes of zero width, whose limits all
        # sit on a Chebyshev point; a limit of 0 has c0 = 0 and so an
        # oil-volume tail of exactly 0 (a curve starts at x = 0)
        rng = np.random.default_rng(18)
        mu, grid = atom_tree_case(rng, 1500, 60)
        alphas = np.concatenate([np.zeros(300), np.repeat(grid, 40), np.full(500, 4.0)])
        vol, rate = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
        assert np.all(vol[alphas == 0.0] == 0.0)
        assert_rows_close(vol, dense_tail(mu, OIL_VOLUME, kappa, alphas))
        assert_rows_close(rate, dense_tail(mu, OIL_RATE, kappa, alphas))

    @pytest.mark.parametrize("kappa", [KAPPA_MIN, 0.005, 0.5, KAPPA_MAX])
    def test_tree_on_jump_aware_limits(self, kappa):
        # sensitivity_constant's grid at 3e4 atoms: 2000 uniform limits and
        # each atom's L - ulp, L and L + ulp, some 9e4 limits in all
        rng = np.random.default_rng(19)
        mu, _ = atom_tree_case(rng, 30000, 0)
        alphas = _jump_aware_alphas(mu, 10.0, 2001)
        got = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
        rows = np.sort(rng.choice(alphas.size, 240, replace=False))
        for tail, kernel in zip(got, (OIL_VOLUME, OIL_RATE)):
            assert_rows_close(tail[rows], dense_tail(mu, kernel, kappa, alphas[rows]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_atoms=st.integers(1, 600),
        decade=st.integers(-150, 150),
        kappa=st.sampled_from([KAPPA_MIN, 0.005, 0.5, KAPPA_MAX]),
    )
    def test_tree_at_any_scale(self, seed, n_atoms, decade, kappa):
        # lengths from 1e-150 to 1e150, and limits at 0, subnormal, on
        # atoms and an ulp either side, besides a grid: every value is
        # finite, >= 0 and within the dense sum's bound
        rng = np.random.default_rng(seed)
        mu, grid = atom_tree_case(rng, n_atoms, 700, scale=10.0 ** decade)
        on = rng.choice(mu._atoms_by_length[0], 40)
        tiny = 5e-324 * rng.integers(1, 2**52, 5)
        alphas = rng.permutation(np.concatenate([
            grid, [0.0, 5e-324, 2.2250738585072014e-308], tiny,
            on, np.nextafter(on, 0.0), np.nextafter(on, np.inf),
        ]))
        got = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
        for tail, kernel in zip(got, (OIL_VOLUME, OIL_RATE)):
            assert np.all(np.isfinite(tail)) and np.all(tail >= 0.0)
            assert_rows_close(tail, dense_tail(mu, kernel, kappa, alphas))

    @pytest.mark.parametrize("kappa", [KAPPA_MIN, 0.005, 0.5, 0.9, KAPPA_MAX])
    def test_tree_at_bulk_sizes(self, kappa):
        # 1e3 and 1e4 atoms, as forward_bulk runs them, on 2001 uniform
        # limits and on the jump-aware grid: far fields past each kernel's
        # branch point and cut nodes, each row within 1e-14 of the dense
        # sum (every row at 1e3 atoms, 500 random ones per grid at 1e4)
        rng = np.random.default_rng(21)
        for n_atoms, n_rows in ((1000, None), (10000, 500)):
            mu, _ = atom_tree_case(rng, n_atoms, 0)
            for alphas in (np.linspace(0.0, 10.0, 2001), _jump_aware_alphas(mu, 10.0, 2001)):
                rows = np.arange(alphas.size) if n_rows is None else np.sort(
                    rng.choice(alphas.size, n_rows, replace=False))
                got = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
                for tail, kernel in zip(got, (OIL_VOLUME, OIL_RATE)):
                    for part in np.array_split(rows, -(-rows.size * n_atoms // 10**6)):
                        assert_rows_close(tail[part], dense_tail(mu, kernel, kappa, alphas[part]))

    @pytest.mark.parametrize("kappa", [KAPPA_MIN, 0.5, KAPPA_MAX])
    def test_cut_nodes_on_atoms(self, monkeypatch, kappa):
        # limits on atoms, an ulp either side of them and each twice, in
        # nodes cut at their Chebyshev points: the running sums apply each
        # kernel's indicator exactly, and with both kernels each keeps the
        # bits of a call with that kernel alone
        rng = np.random.default_rng(20)
        mu, grid = atom_tree_case(rng, 3000, 2001)
        L = mu._atoms_by_length[0]
        on = L[(L > 6.0) & (L < 6.05)]
        below, above = np.nextafter(on, 0.0), np.nextafter(on, np.inf)
        alphas = np.concatenate([grid, np.repeat(np.concatenate([on, below, above]), 2)])
        cut = []
        cut_tails = measures._cut_tails

        def counted(kernels, L, S, L2, x, c, kappa, lo, out):
            cut.append(lo.copy())
            return cut_tails(kernels, L, S, L2, x, c, kappa, lo, out)

        monkeypatch.setattr(measures, "_cut_tails", counted)
        both = tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
        if kappa == 0.5:
            limits = np.concatenate(cut)
            for kind in (on, below, above):
                assert np.isin(kind, limits).sum() >= kind.size // 2
        for tail, kernel in zip(both, (OIL_VOLUME, OIL_RATE)):
            assert_rows_close(tail, dense_tail(mu, kernel, kappa, alphas))
            assert np.array_equal(tail, tail_integral(mu, (kernel,), kappa, alphas)[0])

    def test_cut_roots_keep_their_digits(self, monkeypatch):
        # CUT_ATOMS' node of zero width is cut, and its Chebyshev points all
        # sit an ulp below an atom: the near-atom root rule reaches them as
        # it reaches a leaf's cells, against 50-digit values (CUT_ROOTS,
        # made by cut_root_table above); with the root at the points
        # formed as L^2 - c0, the rate tail is off by 1.1e-5 relative at
        # kappa 1e-6
        cut = []
        cut_tails = measures._cut_tails

        def counted(kernels, L, S, L2, x, c, kappa, lo, out):
            cut.append(lo.size)
            return cut_tails(kernels, L, S, L2, x, c, kappa, lo, out)

        monkeypatch.setattr(measures, "_cut_tails", counted)
        lower = np.full(30, CUT_LOWER)
        for kappa, volume, rate in CUT_ROOTS:
            got = tail_integral(Measure(atoms=CUT_ATOMS), (OIL_VOLUME, OIL_RATE), kappa, lower)
            for tail, want in zip(got, (volume, rate)):
                assert np.all(np.abs(tail / want - 1.0) <= 1e-14), kappa
        assert cut == [lower.size] * len(CUT_ROOTS)

    def test_far_fields_hold_enough_atoms(self, monkeypatch):
        # a far field's interpolant costs _FAR_POINTS terms per limit, so
        # no node takes fewer atoms than that as one: at mc's sizes on its
        # jump-aware grid, and at bulk sizes, at any kappa
        sizes = []
        far_sums = measures._far_sums

        def counted(kernels, L, S, L2, x, c, kappa):
            sizes.append(L.size)
            return far_sums(kernels, L, S, L2, x, c, kappa)

        monkeypatch.setattr(measures, "_far_sums", counted)
        rng = np.random.default_rng(22)
        for n_atoms in (27, 48, 1000, 10000):
            mu, grid = atom_tree_case(rng, n_atoms, 2001)
            for alphas in (grid, _jump_aware_alphas(mu, 10.0, 2001)):
                for kappa in (KAPPA_MIN, 0.5, KAPPA_MAX):
                    tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, alphas)
        assert sizes and min(sizes) >= measures._FAR_POINTS

    def test_far_field_on_its_nodes(self):
        # a limit on a Chebyshev point, or a subnormal away from the first,
        # takes that point's sums: no weight overflows and none is 0/0
        values = np.array([np.arange(1.0, 21.0), np.full(20, 3.0)])
        lo = np.concatenate([measures._FAR_NODES[:1], [5e-324, 1e-300], measures._FAR_NODES[1:]])
        out = np.zeros((2, lo.size))
        measures._far_values(lo, values, out)
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[:, 3:], values[:, 1:])
        for k in range(3):
            assert np.array_equal(out[:, k], values[:, 0])

    @pytest.mark.parametrize("n_pieces", [1, 3])
    @pytest.mark.parametrize("n_atoms", [0, 20], ids=["pieces", "pieces-atoms"])
    def test_pieces_share_one_root_step(self, monkeypatch, n_pieces, n_atoms):
        # both kernels of a call integrate a piece from one root step, and
        # each gets the bits of a call with that kernel alone
        rng = np.random.default_rng(n_pieces + n_atoms)
        ends = np.sort(rng.uniform(1.0, 9.0, 2 * n_pieces)).tolist()
        pieces = tuple(
            (a, b, float(rho))
            for a, b, rho in zip(ends[::2], ends[1::2], rng.uniform(0.5, 2.0, n_pieces))
        )
        mu = Measure(atoms=random_atom_measure(rng, n_atoms).atoms, pieces=pieces)
        alphas = rng.permutation(np.linspace(0.0, 10.0, 101))
        alone = [tail_integral(mu, (kernel,), 0.5, alphas)[0]
                 for kernel in (OIL_VOLUME, OIL_RATE)]
        calls = []
        root_step = measures._root_step

        def counted(*args):
            calls.append(args)
            return root_step(*args)

        monkeypatch.setattr(measures, "_root_step", counted)
        both = tail_integral(mu, (OIL_VOLUME, OIL_RATE), 0.5, alphas)
        assert len(calls) == n_pieces
        for got, want in zip(both, alone, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_blocks_reuse_the_thread_buffers(self, kernels):
        # 2001 alphas make a tree of leaves and far fields of up to 256 KB
        # per float array at 50 and 128 atoms; a warm call fills them in
        # place, so only the results, the sorted limits, the masks and
        # numpy's iterator buffers are new (fresh temporaries peak >1 MB)
        alphas = np.linspace(0.0, 10.0, 2001)
        for n_atoms in (50, 128):
            mu = random_atom_measure(np.random.default_rng(5), n_atoms)
            tail_integral(mu, kernels, 0.5, alphas)
            tracemalloc.start()
            try:
                tail_integral(mu, kernels, 0.5, alphas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**19, n_atoms

    def test_cuts_fit_the_tree_buffers(self, monkeypatch):
        # a cut's running sums fill at most one of the tree's two buffers
        # per kernel, and its interpolation chunk is a small array: calls
        # with both kernels and cuts of over 1000 atoms, in a thread of
        # their own, leave its buffers at the size the tree first takes
        cuts = []
        cut_tails = measures._cut_tails

        def counted(kernels, L, S, L2, x, c, kappa, lo, out):
            cuts.append((len(kernels), L.size))
            return cut_tails(kernels, L, S, L2, x, c, kappa, lo, out)

        def run():
            rng = np.random.default_rng(23)
            for n_atoms in (1000, 10000):
                mu, grid = atom_tree_case(rng, n_atoms, 2001)
                for kappa in (KAPPA_MIN, 0.5, KAPPA_MAX):
                    tail_integral(mu, (OIL_VOLUME, OIL_RATE), kappa, grid)
            return measures._BLOCK_WORK.buffers.shape

        monkeypatch.setattr(measures, "_cut_tails", counted)
        with ThreadPoolExecutor(max_workers=1) as pool:
            shape = pool.submit(run).result(timeout=120)
        assert shape == (2, measures._TREE_CELLS)
        assert max(n for k, n in cuts if k == 2) > 1000

    def test_threads_keep_their_own_buffers(self):
        # more workers than cores and frequent switches: a buffer shared
        # between threads would mix blocks of different measures
        rng = np.random.default_rng(9)
        mus = [random_atom_measure(rng, 40 + k) for k in range(8)]
        alphas = np.linspace(0.0, 10.0, 3001)
        serial = [tail_integral(mu, (OIL_VOLUME,), 0.5, alphas)[0] for mu in mus]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(
                    lambda mu: tail_integral(mu, (OIL_VOLUME,), 0.5, alphas)[0],
                    mus * 5, timeout=120,
                ))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial * 5):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_keeps_the_input_shape(self, kernels):
        mu = random_atom_measure(np.random.default_rng(3), 30)
        alphas = np.linspace(0.0, 10.0, 12)
        flats = tail_integral(mu, kernels, 0.5, alphas)
        grids = tail_integral(mu, kernels, 0.5, alphas.reshape(3, 4))
        points = tail_integral(mu, kernels, 0.5, alphas[5])
        for flat, grid, point in zip(flats, grids, points, strict=True):
            assert np.array_equal(grid, flat.reshape(3, 4))
            assert point.shape == () and point == flat[5]

    def test_lower_limit_conventions(self):
        # an atom at the lower limit is in the closed tail, not the open one
        mu = Measure(atoms=((1.0, 1.0), (2.0, 1.0)))
        lower = np.array([1.0, 2.0])
        far = 2.0 - math.sqrt(4.0 - 0.75)
        both = tail_integral(mu, (OIL_VOLUME, OIL_RATE), 0.5, lower)
        alone = [tail_integral(mu, (k,), 0.5, lower)[0] for k in (OIL_VOLUME, OIL_RATE)]
        for vol, rate in (both, alone):
            assert vol == pytest.approx([0.5 + far, 1.0], rel=1e-14)
            assert rate == pytest.approx([1.0 / math.sqrt(4.0 - 0.75), 0.0], rel=1e-14)

    def test_rejects_bad_lower_limit(self):
        # alpha^2 overflows from 2^512 on
        for bad in (-1.0, math.nan, math.inf, 2.0**512):
            with pytest.raises(ArgumentError):
                tail_integral(ATOM_11, (OIL_RATE,), 0.5, np.array([bad]))

    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_rejects_bad_kappa(self, kernels):
        # kappa 0 would give an atom at its limit a zero root
        lower = np.linspace(0.0, 3.0, 5)
        for bad in (0.0, 1.0, math.nan, KAPPA_MIN / 2):
            with pytest.raises(ArgumentError, match="viscosity ratio"):
                tail_integral(ATOM_11, kernels, bad, lower)


class TestPrefixIntegral:
    def test_counting_function_on_pieces(self):
        # p = 0 is the counting function mu([0, alpha)) in its direct form
        rng = np.random.default_rng(12)
        alphas = np.linspace(0.0, 12.0, 301)
        for _ in range(10):
            mu = random_measure(rng, kind="pieces")
            expected = np.zeros_like(alphas)
            for pa, pb, rho in mu.pieces:
                hi = np.clip(alphas, pa, pb)
                expected += np.where(alphas > pa, rho * (hi - pa), 0.0)
            assert np.array_equal(prefix_integral(mu, 0, alphas), expected)

    def test_each_exponent_on_a_piece(self):
        mu = Measure(pieces=((1.0, 3.0, 2.0),))
        alphas = np.array([0.5, 2.0, 5.0])
        assert prefix_integral(mu, -1, alphas) == pytest.approx(
            [0.0, 2.0 * math.log(2.0), 2.0 * math.log(3.0)], rel=1e-15
        )
        assert prefix_integral(mu, 0, alphas) == pytest.approx([0.0, 2.0, 4.0])
        assert prefix_integral(mu, 1, alphas) == pytest.approx([0.0, 3.0, 8.0])

    def test_inclusive_counts_atom_at_alpha(self):
        mu = Measure(atoms=((1.0, 2.0),))
        alphas = np.array([1.0])
        assert prefix_integral(mu, 0, alphas)[0] == 0.0
        assert prefix_integral(mu, 0, alphas, inclusive=True)[0] == 2.0

    def test_matches_moment(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            mu = random_measure(rng)
            alphas = np.sort(rng.uniform(0.0, 12.0, 7))
            for p in (-1, 0, 1):
                got = prefix_integral(mu, p, alphas)
                assert got.tolist() == [moment(mu, p, 0.0, a) for a in alphas]

    def test_rejects_bad_input(self):
        with pytest.raises(ArgumentError):
            prefix_integral(ATOM_11, 2, np.array([1.0]))
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                prefix_integral(ATOM_11, 0, np.array([1.0, bad]))


if __name__ == "__main__":
    for name, table, split in (
        ("NARROW_CELLS", narrow_cell_table, 4), ("ATOM_ROOTS", atom_root_table, 3),
        ("CUT_ROOTS", cut_root_table, 1),
    ):
        print(f"{name} = [")
        for row in table():
            values = [repr(v) for v in row]
            print(f"    ({', '.join(values[:split])},\n     {', '.join(values[split:])}),")
        print("]")
