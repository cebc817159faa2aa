"""Measure construction and closed-form integration."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tubeflood.errors import ArgumentError
from tubeflood import measures
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
            total = float(np.sum(OIL_VOLUME.atom(w, y, s, c0, np.empty_like(s))))
            for pa, pb, rho in mu.pieces:
                if pb > a:
                    total += rho * float(OIL_VOLUME.cell(max(pa, a), pb, c0))
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
        # for any c0 from 0 up to x^2 and, past the piece's end, above it
        c0 = np.array([0.0, 0.5, 1.0 - 1e-12, 1.0, 1.5]) * (x * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = kernel.cell(np.full(c0.shape, x), np.full(c0.shape, x), c0)
        assert cells.tolist() == [0.0] * c0.size

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


# the kernel tuples a tail pass takes: each kernel alone, and both at once
KERNELS = [(OIL_VOLUME,), (OIL_RATE,), (OIL_VOLUME, OIL_RATE)]
KERNEL_IDS = ["volume", "rate", "both"]


def random_atom_measure(rng, n):
    # lengths on a coarse lattice so that ties and exact node hits occur
    L = rng.integers(1, 40, n) / 4.0
    return Measure(atoms=tuple(zip(L.tolist(), rng.uniform(0.5, 2.0, n).tolist())))


def dense_tail(mu, kernel, c0, lower):
    """Unblocked reference: one (alpha, atom) array holding every cell."""
    L = np.array([a[0] for a in mu.atoms])
    S = np.array([a[1] for a in mu.atoms])
    order = np.argsort(L, kind="stable")
    L, S = L[order][None, :], S[order][None, :]
    lo, c = lower[:, None], c0[:, None]
    in_tail = L >= lo if kernel is OIL_VOLUME else L > lo
    disc = np.where(in_tail, L**2 - c, 1.0)
    if kernel is OIL_VOLUME:
        terms = S * (c / (L + np.sqrt(disc)))
    else:
        terms = S / np.sqrt(disc)
    return np.sum(np.where(in_tail, terms, 0.0), axis=1)


class TestTailIntegral:
    @pytest.mark.parametrize(
        "block_cells, n_atoms, n_alphas, lower, kappa",
        [
            # one block
            pytest.param(None, 50, 20, "ascending", 0.5, id="None-50-20"),
            # blocks of 32 rows, a last block of 4
            pytest.param(None, 1000, 100, "ascending", 0.5, id="None-1000-100"),
            # more atoms than cells: one row per block
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
        c0 = (1.0 - kappa * kappa) * alphas * alphas
        got = tail_integral(mu, kernels, kappa, alphas)
        for tail, kernel in zip(got, kernels, strict=True):
            assert np.array_equal(tail, dense_tail(mu, kernel, c0, alphas))

    @pytest.mark.parametrize("kernel", [OIL_VOLUME, OIL_RATE], ids=["volume", "rate"])
    def test_evaluates_only_the_live_cells(self, kernel):
        # ascending limits over the atoms' range: the cells below a block's
        # smallest limit never reach the kernel, about half of them here
        rng = np.random.default_rng(10)
        n_atoms, n_alphas = 4000, 2001
        L, S = rng.uniform(0.5, 10.0, n_atoms), rng.uniform(0.5, 2.0, n_atoms)
        mu = Measure(atoms=tuple(zip(L.tolist(), S.tolist())))
        alphas = np.linspace(0.0, 10.0, n_alphas)
        cells = []

        def atom(w, y, s, c, out):
            cells.append(out.size)
            return kernel.atom(w, y, s, c, out)

        (got,) = tail_integral(mu, (kernel._replace(atom=atom),), 0.5, alphas)
        assert np.array_equal(got, tail_integral(mu, (kernel,), 0.5, alphas)[0])
        assert sum(cells) <= 0.6 * n_atoms * n_alphas

    @pytest.mark.parametrize("kernels", KERNELS, ids=KERNEL_IDS)
    def test_blocks_reuse_the_thread_buffers(self, kernels):
        # 50 atoms x 2001 alphas is four blocks of 256 KB per float array; a
        # warm call fills them in place, so only the results, the masks and
        # numpy's iterator buffers are new (fresh temporaries peak >1 MB)
        mu = random_atom_measure(np.random.default_rng(5), 50)
        alphas = np.linspace(0.0, 10.0, 2001)
        tail_integral(mu, kernels, 0.5, alphas)
        tracemalloc.start()
        try:
            tail_integral(mu, kernels, 0.5, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

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
