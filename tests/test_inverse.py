"""Integral operator, fixed-point recovery, and measure reconstruction."""

import dataclasses
import decimal
import fractions
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import tubeflood
from tubeflood import inverse, measures
from tubeflood.errors import ArgumentError
from tubeflood.forward import DisplacementCurve, build_curve, curve_readoff, v_w_samples
from tubeflood.inverse import (
    RecoveryConfig,
    RecoveryResult,
    _unit_t_matrix,
    apply_T,
    h_of_alpha,
    recover,
    recover_cdf,
    recover_density,
    solve_fixed_point,
)
from tubeflood.measures import KAPPA_MIN, Measure

from helpers import (
    closed_tail_integral, dense_operator, far_parts, operator_row, reference_t_matrix,
    reference_t_row, searchsorted_sweep
)


SQRT3_2 = math.sqrt(3.0) / 2.0

# _cells calls per build at n = 2001, as measured, by kappa
CELL_CALLS = {0.999: 11, SQRT3_2: 11, 0.5: 13, 0.1: 24, 0.02: 25, 0.005: 25}


def closed_square_integral(alpha, alpha_max, kappa):
    """Antiderivative oracle for T applied to V(y) = y^2.

    With a^2 = c alpha^2 and r(y) = sqrt(y^2 - a^2):
        integral dy / r^3  =  -y / (a^2 r) ,
    whose difference from alpha, where r = kappa alpha, to alpha_max is
    (alpha_max^2 - alpha^2) / (r r_max (alpha r_max + alpha_max r)),
    taken in that form, without the subtraction.
    """
    r = kappa * alpha
    r_max = math.sqrt((alpha_max - alpha) * (alpha_max + alpha) + r * r)
    diff = (alpha_max - alpha) * (alpha_max + alpha) / (
        r * r_max * (alpha * r_max + alpha_max * r))
    return kappa * (1.0 - kappa * kappa) * alpha**4 * diff


def picard(curve, n_grid, v0, h=None):
    """Test oracle: plain iteration V <- G(h + TV) to a 1e-15 v_max step.

    h defaults to the inhomogeneous term built from curve_readoff.
    """
    grid = np.linspace(0.0, curve.alpha_max, n_grid)
    if h is None:
        h = h_of_alpha(*curve_readoff(curve), curve.kappa, curve.alpha_max, grid)
    v = np.full(n_grid, float(v0))
    for _ in range(5000):
        v_next = curve(h + apply_T(v, curve.kappa, curve.alpha_max))
        step = np.max(np.abs(v_next - v))
        v = v_next
        if step <= 1e-15 * curve.v_max:
            return v
    raise AssertionError("Picard oracle did not settle")


def exact_entry(n, kappa, i, j):
    """M[i, j] on the unit grid by adaptive quadrature, in x = y/alpha_i:
    the hat of node j is linear in y^2 on each of its cells."""
    c = 1.0 - kappa * kappa
    total = 0.0
    # cells [j-1, j] (rising hat) and [j, j+1] (falling hat), in node units
    rising = lambda x: ((i * x) ** 2 - (j - 1) ** 2) / (j * j - (j - 1) ** 2)
    falling = lambda x: ((j + 1) ** 2 - (i * x) ** 2) / ((j + 1) ** 2 - j * j)
    for lo, weight in ((j - 1, rising), (j, falling)):
        if lo < i or lo + 1 > n - 1:
            continue
        xl, xr = lo / i, (lo + 1) / i
        # the kernel falls off over a width ~kappa^2 past x = 1
        peak = [xl + kappa * kappa] if xl == 1.0 and kappa * kappa < xr - xl else None
        val, _ = quad(
            lambda x: weight(x) / (x * x * (x * x - c) ** 1.5),
            xl, xr, points=peak, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        total += val
    return kappa * c * total


def assert_matches_the_reference(n, kappa):
    """The operator's entries against the dense oracle, to 4e-14 of each
    row's largest, with the oracle's zeros where it has them: measured up
    to 4.2e-15 at n = 2001, the far fields' interpolation."""
    M = dense_operator(_unit_t_matrix(n, kappa))
    ref = reference_t_matrix(n, kappa)
    assert np.array_equal(M == 0.0, ref == 0.0)
    assert np.all(np.tril(M, -1) == 0.0) and np.all(M[[0, -1]] == 0.0)
    row_max = ref.max(axis=1, keepdims=True)
    assert np.all(np.abs(M - ref) <= 4e-14 * row_max)


class TestClosedForm:
    @pytest.fixture(scope="class", params=[0.999, SQRT3_2, 0.5, 0.1, 0.02, 0.005])
    def kappa(self, request):
        """The kappas of the n = 2001 tests.  pytest runs those tests kappa
        by kappa, so they share one cached assembly per kappa.  At
        sqrt(3)/2, sqrt(1 - kappa^2) = 1/2, where a far cluster one span
        wide would see its column singularity nearest, at t = 2."""
        return request.param

    def test_entries_match_quadrature(self, kappa):
        n = 2001
        M = dense_operator(_unit_t_matrix(n, kappa))
        cells = [(i, j) for i in (1, 2, 10, 500, 1998) for j in (i, i + 1, i + 2)]
        cells += [(1, 1500), (10, 1000), (500, 1800)]   # far from the diagonal
        # the last column, at the alpha_max edge
        cells += [(1, 2000), (3, 2000), (410, 2000)]
        for i, j in cells:
            ref = exact_entry(n, kappa, i, j)
            assert M[i, j] == pytest.approx(ref, rel=1e-11, abs=0.0), (i, j)

    @pytest.mark.parametrize("n", [2001, 501, 51, 3])
    def test_matches_the_reference_assembly(self, n, kappa):
        assert_matches_the_reference(n, kappa)

    def test_far_entries_keep_their_digits(self, kappa):
        # each entry the far parts hold, to 1e-13 of itself from the dense
        # closed form: measured up to 1.09e-14 at n = 2001; cores without
        # their y^5 gave 2.3e-11 at kappa 0.999, against 2.6e-15
        n = 2001
        op = _unit_t_matrix(n, kappa)
        ref = reference_t_matrix(n, kappa)
        for lo, j, top, F, B, scale, hi in far_parts(op.leaves):
            want = ref[lo:hi, j:top]
            assert np.all(np.abs((B @ F) * scale[:, None] - want) <= 1e-13 * want)

    def test_matvec_applies_the_stored_operator(self, kappa):
        # each far part added once to the leaves' rows: every entry of M v
        # within 2e-14 of its |M| |v|, rounding of the order of operations;
        # measured up to 4.3e-15
        op = _unit_t_matrix(2001, kappa)
        M = dense_operator(op)
        rng = np.random.default_rng(3)
        for v in (rng.uniform(size=op.n), rng.normal(size=op.n), np.ones(op.n)):
            assert np.all(np.abs(op.matvec(v) - M @ v) <= 2e-14 * (np.abs(M) @ np.abs(v)))

    @pytest.mark.parametrize("n", [2001, 501])
    def test_matches_the_reference_assembly_at_the_smallest_kappa(self, n):
        # measured 1.1e-15 (n = 501 and 2001) of the row maximum
        assert_matches_the_reference(n, KAPPA_MIN)

    def test_v_matches_the_reference_assembly(self, kappa):
        # V = G(h + MV) is a contraction with factor q, so entries apart by
        # up to 4.2e-15 of their row's largest (the far fields) move V by
        # up to about that much of v_max / (1 - q); measured up to 4.0e-16
        # of it
        n = 501
        mu = Measure(atoms=((4.0, 1.0), (7.5, 0.5)), pieces=((3.0, 9.0, 1.0),))
        curve = build_curve(mu, kappa, 10.0, 2001)
        grid = np.linspace(0.0, curve.alpha_max, n)
        h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
        oracle = searchsorted_sweep(reference_t_matrix(n, kappa), h, curve.x, curve.g)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=n))
        bound = 4e-15 * curve.v_max / (1.0 - result.contraction_q)
        assert np.max(np.abs(result.v - oracle)) <= bound

    def test_cells_match_stored_values(self):
        # both parts of each cell of CELLS (made by cell_table below) to
        # 1e-14 relative: diagonal, near and far cells up to m = 2^26 - 1,
        # and a far part's Chebyshev rows and cells; measured up to 1.6e-15,
        # at a Chebyshev row and cell, whose squares round
        table = np.array(CELLS)
        assert len(table) >= 200
        for kappa in np.unique(table[:, 0]):
            rows = table[table[:, 0] == kappa]
            # a grid past every stored cell, so no left part is dropped
            left, right = inverse._cells(rows[:, 1], rows[:, 2], kappa, inverse._MAX_GRID + 1)
            assert np.all(np.abs(left / rows[:, 3] - 1.0) <= 1e-14), kappa
            assert np.all(np.abs(right / rows[:, 4] - 1.0) <= 1e-14), kappa

    def test_warm_assembly_allocates_no_block_temporaries(self):
        # what a build holds beyond the operator it keeps: the tree's
        # lists and one far part's rows, no cell block
        n = 2001
        inverse._OPERATOR.clear()
        _unit_t_matrix(n, 0.3)              # grows this thread's buffers
        inverse._OPERATOR.clear()
        tracemalloc.start()
        try:
            _unit_t_matrix(n, 0.31)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 0.1 * n * n * 8
        assert peak - kept < 4 << 20

    def test_build_memory_grows_as_n_log_n(self):
        # the dense matrix grew 64x from n = 2001 to 16001
        peaks = {}
        for n in (2001, 16001):
            inverse._OPERATOR.clear()
            tracemalloc.start()
            try:
                _unit_t_matrix(n, 0.5)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        inverse._OPERATOR.clear()
        assert peaks[16001] <= 20 * peaks[2001]

    def test_threads_assemble_in_their_own_buffers(self):
        n, kappas = 501, (0.005, 0.1, 0.5, 0.999)
        serial = {}
        for kappa in kappas:
            inverse._OPERATOR.clear()
            serial[kappa] = dense_operator(_unit_t_matrix(n, kappa))
        inverse._OPERATOR.clear()
        got = {}

        def assemble(kappa):
            try:
                got[kappa] = [_unit_t_matrix(n, kappa) for _ in range(2)]
            except RuntimeWarning as exc:   # a shared buffer can make a NaN
                got[kappa] = exc

        threads = [threading.Thread(target=assemble, args=(k,)) for k in kappas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for kappa in kappas:
            assert isinstance(got[kappa], list), got[kappa]
            for M in got[kappa]:
                assert np.array_equal(dense_operator(M), serial[kappa]), kappa

    @pytest.mark.parametrize("n", [3, 51, 501, 2001])
    def test_row_sums_at_most_q(self, n):
        for kappa in (0.999, 0.8, 0.5, 0.1, 0.02, 0.005):
            q = (1.0 - kappa) / (1.0 + kappa)
            M = dense_operator(_unit_t_matrix(n, kappa))
            assert np.all(M >= 0.0)
            # exactly q only in the limit alpha -> 0; allow 2 ulp of rounding
            assert np.max(M.sum(axis=1)) <= q + 2 * np.finfo(float).eps * q

    def test_upper_triangular(self):
        M = dense_operator(_unit_t_matrix(101, 0.3))
        assert np.all(np.tril(M, -1) == 0.0)
        assert np.all(np.diag(M)[1:-1] > 0.0)

    def test_last_row_is_zero(self):
        m = dense_operator(_unit_t_matrix(51, 0.5))
        assert np.all(m[-1] == 0.0)
        assert np.all(m[0] == 0.0)  # alpha = 0 kills the kernel

    def test_matrix_is_scale_invariant_on_uniform_grids(self):
        # one unit-grid matrix serves every alpha_max: T(1) is exact on any
        # uniform grid, since constants lie in the span of the hat functions
        for alpha_max in (1.0, 7.3):
            grid = np.linspace(0.0, alpha_max, 201)
            tv = apply_T(np.ones(201), 0.5, alpha_max)
            oracle = [closed_tail_integral(a, alpha_max, 0.5) for a in grid[1:]]
            assert np.max(np.abs(tv[1:] - oracle)) <= 1e-13

    @pytest.mark.parametrize("kappa", [0.5, 0.1, 0.02])
    def test_linear_profile_against_antiderivative(self, kappa):
        # V(y) = y^2, linear in y^2, also lies in the span, so T(V) is
        # exact at every node
        grid = np.linspace(0.0, 10.0, 1001)
        tv = apply_T(grid * grid, kappa, 10.0)
        oracle = [closed_square_integral(a, 10.0, kappa) for a in grid[1:]]
        assert np.max(np.abs(tv[1:] - oracle)) <= 1e-11

    def test_row_blocks_do_not_change_the_matrix(self, monkeypatch):
        # at n = 301 three far clusters take cores
        def assemble(n, block_cells):
            monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
            inverse._OPERATOR.clear()
            return dense_operator(_unit_t_matrix(n, 0.3))

        for n in (101, 301):
            one_block = assemble(n, n * n)
            for block_cells in (1, 3 * n, 16 * n):   # 1, 3 and 16 rows
                assert np.array_equal(assemble(n, block_cells), one_block)

    def test_cells_are_taken_in_few_calls(self, monkeypatch, kappa):
        # near columns of several leaves, and the cores of several far
        # clusters, share a call: at most 25% over the measured count,
        # against 68-125 calls with one per leaf and one per far part
        calls = []
        real = inverse._cells

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(inverse, "_cells", spy)
        inverse._Operator(2001, kappa)
        assert len(calls) <= math.ceil(1.25 * CELL_CALLS[kappa])

    def test_cache_frees_the_old_matrix_before_assembly(self, monkeypatch):
        old = weakref.ref(_unit_t_matrix(151, 0.5))
        assert _unit_t_matrix(151, 0.5) is old()      # a hit returns the same
        freed = []
        real = inverse._Operator

        def spy(*args, **kwargs):
            freed.append(old() is None)
            return real(*args, **kwargs)

        monkeypatch.setattr(inverse, "_Operator", spy)
        new = _unit_t_matrix(152, 0.5)
        assert freed == [True]
        assert _unit_t_matrix(152, 0.5) is new
        assert list(inverse._OPERATOR) == [(152, 0.5)]

    def test_backend_is_reported(self):
        assert tubeflood.BACKEND == "numpy"


# a pieces-only measure, and atoms on grid nodes (for most n below) and at
# alpha_max = 10 next to a piece
OPERATOR_MEASURES = (
    Measure(pieces=((1.0, 4.0, 1.0), (5.5, 9.0, 2.0))),
    Measure(atoms=((2.5, 1.0), (5.0, 0.7), (10.0, 0.4)), pieces=((3.0, 6.0, 0.5),)),
)


class TestHierarchicalOperator:
    """The tree of dense leaves and Chebyshev far parts against the dense oracle."""

    @pytest.mark.parametrize("kappa", [1e-6, 0.005, 0.02, 0.1, 0.5, 0.999])
    @pytest.mark.parametrize("n", [3, 64, 65, 501, 2001])
    def test_v_matches_the_dense_sweep(self, n, kappa):
        # entries within 4.2e-15 of their row's largest (the far fields)
        # move V by up to about that much of v_max / (1 - q); measured up
        # to 4.6e-16 of it
        ref = reference_t_matrix(n, kappa)
        q = (1.0 - kappa) / (1.0 + kappa)
        for mu in OPERATOR_MEASURES:
            curve = build_curve(mu, kappa, 10.0, 2001)
            grid = np.linspace(0.0, curve.alpha_max, n)
            h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
            oracle = searchsorted_sweep(ref, h, curve.x, curve.g)
            v = solve_fixed_point(curve, RecoveryConfig(n_grid=n)).v
            assert np.max(np.abs(v - oracle)) <= 4e-15 * curve.v_max / (1.0 - q)

    @pytest.mark.parametrize("shape", ["leaf", "near", "far", "core"])
    def test_cells_drop_the_left_part_past_alpha_max(self, shape):
        # the shapes the callers pass: flat leaf cells, and (parts, rows, 1)
        # x (parts, 1, cells) blocks, two parts each, with leaves' rows for
        # their near columns, spans' Chebyshev rows, not integers, for the
        # exact far columns, and those rows and Chebyshev cells, not
        # integers either, for the cores; every block reaches the cell
        # n - 1 past alpha_max
        n = 40
        if shape == "leaf":
            i, m = np.triu_indices(n)
            i, m = i[i >= 1].astype(float), m[i >= 1].astype(float)
        else:
            if shape == "near":
                i = np.arange(3.0, 9.0) + np.array([[0.0], [8.0]])
            else:
                i = np.array([[2.0], [9.0]]) + 6.0 * measures._FAR_NODES
            if shape == "core":
                m = np.array([[20.0], [27.0]]) + (n - 28.0) * measures._FAR_NODES
            else:
                m = np.arange(20.0, n + 3.0) - np.array([[0.0], [4.0]])   # across the edge
            i, m = i[:, :, None], m[:, None, :]
        left, right = (x.copy() for x in inverse._cells(i, m, 0.3, n))
        past = np.broadcast_to(m == n - 1, left.shape)
        assert past.any() and not past.all()
        assert np.all(left[past] == 0.0) and np.all(left[~past] != 0.0)
        # away from the edge, the cells are those of a larger grid
        far_left, far_right = inverse._cells(i, m, 0.3, 2 * n)
        assert np.array_equal(left[~past], far_left[~past])
        assert np.array_equal(right, far_right)

    @pytest.mark.parametrize("kappa", [0.005, 0.1, 0.999])
    def test_leaf_rows_are_those_of_one_call_per_row(self, kappa):
        # the leaves' cells come in blocks of many leaves, and their near
        # columns in blocks of several; a row of a leaf has the bits of one
        # _cells call over its cells i, ..., top - 1, by one rule for every
        # entry: M[i, m] = (left(m) + right(m - 1)) kappa c i^4
        n = 2001
        inverse._OPERATOR.clear()
        op = _unit_t_matrix(n, kappa)
        inverse._OPERATOR.clear()
        kc = kappa * (1.0 - kappa * kappa)
        for lo, hi, L, _ in op.leaves:
            top = lo + L.shape[1]
            for i in sorted({max(lo, 1), (lo + hi) // 2, hi - 1}):
                left, right = inverse._cells(
                    np.array([float(i)]), np.arange(float(i), top), kappa, n)
                quotient = left.copy()           # no cell i - 1 on the diagonal
                quotient[1:] += right[:-1]
                row = np.zeros(top - lo)
                row[i - lo:] = quotient * (kc * ((i * i) * (i * i)))
                assert np.array_equal(L[i - lo], row), (lo, i)

    def test_leaves_evaluate_only_the_upper_triangle(self, monkeypatch):
        # a leaf of s nodes has s (s + 1) / 2 cells on or above its
        # diagonal, and the near and far rectangles evaluate no cell [m,
        # m + 1] below the diagonal, m < i, either
        inside, cells = [], []
        real_cells, real_leaves = inverse._cells, inverse._leaves

        def spy_cells(i, m, kappa, n):
            if inside:
                cells.append(np.broadcast(i, m).size)
            assert np.all(m >= i)
            return real_cells(i, m, kappa, n)

        def spy_leaves(*args):
            inside.append(True)
            try:
                return real_leaves(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(inverse, "_cells", spy_cells)
        monkeypatch.setattr(inverse, "_leaves", spy_leaves)
        inverse._OPERATOR.clear()
        op = _unit_t_matrix(2001, 0.1)
        inverse._OPERATOR.clear()
        assert far_parts(op.leaves)
        s = np.array([hi - lo for lo, hi, *_ in op.leaves])
        assert 0 < sum(cells) <= np.sum(s * (s + 1) // 2)

    @pytest.mark.parametrize("n", [3, 64, 65, 2001])
    def test_tree(self, n):
        for kappa in (1e-6, 0.5, 0.999):
            inverse._OPERATOR.clear()
            op = _unit_t_matrix(n, kappa)
            # the leaves tile [0, n) from the top down
            spans = [(lo, hi) for lo, hi, *_ in op.leaves]
            assert spans[0][1] == n and spans[-1][0] == 0
            assert all(a[0] == b[1] for a, b in zip(spans, spans[1:]))
            assert all(hi - lo <= inverse._LEAF for lo, hi in spans)
            # each far part's first hat [j - 1, j + 1] lies past the
            # singularity of every row of its span, by the span's width
            sc = math.sqrt((1.0 - kappa) * (1.0 + kappa))
            for lo, j, top, F, B, scale, hi in far_parts(op.leaves):
                b, w = hi - 1, hi - 1 - lo
                assert hi - lo > inverse._LEAF and j < top
                assert j - 1 >= max(b, sc * (b + w))
                assert F.shape == (measures._FAR_POINTS, top - j)
                assert B.shape == (hi - lo, measures._FAR_POINTS)
            # a far part's columns split from j on into clusters of more
            # than _FAR_POINTS columns, each at most a span wide and past
            # the column separation, then the exact columns, which would
            # not make such a cluster, and the alpha_max column
            for lo, j, top, cores, hi in far_parts(inverse._tree(n, kappa)):
                b, end = hi - 1, min(top, n - 1)
                starts = [j] + [e for _, e in cores]
                assert [p for p, _ in cores] == starts[:-1]
                for p, e in cores:
                    assert measures._FAR_POINTS < e - p <= min(hi - lo, p - 1 - sc * b)
                q = starts[-1]
                assert q <= end
                assert min(end, q + min(hi - lo, math.floor(q - 1 - sc * b))) - q <= (
                    measures._FAR_POINTS)
            # and with the leaves' rows they hold each entry on and above
            # the diagonal once
            held = np.zeros((n, n), dtype=np.uint8)
            for lo, hi, L, _ in op.leaves:
                held[lo:hi, lo:lo + L.shape[1]] += 1
            for lo, j, top, *_, hi in far_parts(op.leaves):
                held[lo:hi, j:top] += 1
            assert np.array_equal(np.triu(held), np.triu(np.ones_like(held)))
            stored = sum(L.size for _, _, L, _ in op.leaves)
            stored += sum(F.size for _, _, _, F, *_ in far_parts(op.leaves))
            if n == 2001:
                assert stored < 0.1 * n * n
        inverse._OPERATOR.clear()

    @pytest.mark.parametrize("n", [8001, 20001])
    def test_rows_match_the_reference_on_large_grids(self, n):
        # 60 sampled rows, each within 4e-14 of its largest entry of the
        # dense closed form; measured up to 4.0e-15 at n = 8001 and
        # 4.1e-15 at 20001
        rows = sorted({1, 2, 3, 10, *np.linspace(1, n - 2, 56).astype(int).tolist()})
        for kappa in (1e-6, 0.005, 0.5, 0.999):
            inverse._OPERATOR.clear()
            op = _unit_t_matrix(n, kappa)
            for i in rows:
                ref = reference_t_row(n, kappa, i)
                got = operator_row(op, i)
                assert np.array_equal(got == 0.0, ref == 0.0), (kappa, i)
                assert np.max(np.abs(got - ref)) <= 4e-14 * ref.max(), (kappa, i)
        inverse._OPERATOR.clear()

    @pytest.mark.parametrize("kappa", [1e-6, 0.5, 0.999])
    def test_far_field_points_interpolate_a_hat_to_rounding(self, kappa):
        # the _FAR_POINTS Chebyshev rows of a span interpolate a hat column
        # placed exactly at the separation to 1e-14 relative between them
        # (FAR_HAT, made by far_hat_table below); 18 points gave 1.7e-13
        table = [(t, value) for k, t, value in FAR_HAT if k == kappa]
        nodes = {t: value for t, value in table if t in measures._FAR_NODES}
        assert list(nodes) == measures._FAR_NODES.tolist()
        between = np.array([(t, value) for t, value in table if t not in nodes])
        assert len(between) >= 10
        basis = measures._far_basis(
            between[:, 0], np.empty((measures._FAR_POINTS, len(between)))
        )
        got = basis.T @ np.array(list(nodes.values()))
        assert np.all(np.abs(got / between[:, 1] - 1.0) <= 1e-14)


    @pytest.mark.parametrize("kappa", [1e-6, 0.5, SQRT3_2, 0.999])
    def test_far_field_points_interpolate_a_cluster_to_rounding(self, kappa):
        # the _FAR_POINTS Chebyshev cells of a far cluster interpolate the
        # flattened parts of a row's cells, the cluster exactly at the
        # column separation, to 1e-14 relative between them (FAR_COLUMN,
        # made by far_column_table below); 18 points gave 5.3e-14, and
        # the parts without their y^5 1.6e-13 to 2.2e-11
        table = np.array([row[1:] for row in FAR_COLUMN if row[0] == kappa])
        at_node = np.isin(table[:, 0], measures._FAR_NODES)
        assert table[at_node, 0].tolist() == measures._FAR_NODES.tolist()
        between = table[~at_node]
        assert len(between) >= 10
        basis = measures._far_basis(
            between[:, 0], np.empty((measures._FAR_POINTS, len(between)))
        )
        got = basis.T @ table[at_node, 1:]
        assert np.all(np.abs(got / between[:, 1:] - 1.0) <= 1e-14)


def far_hat_table():
    """Rows (kappa, t, value) of FAR_HAT: the quotient M / (kappa c alpha^4)
    of one hat column at the rows alpha = 40 + 80 t of a span [40, 120],
    40 hats wide, to 40 digits with alpha and kappa taken as exact.  The
    hat [y0, y0 + 2], linear in y^2 on each of its two cells, sits
    exactly at the separation of inverse._tree, y0 = max(b, sqrt(c)
    (b + w)), and the value is its integral against
    1 / (y^2 (y^2 - c alpha^2)^{3/2}), c = 1 - kappa^2.  t runs over the
    20 Chebyshev points measures._FAR_NODES and the midpoints of 10
    pairs of them.  Print them with
    PYTHONPATH=src:tests python tests/test_inverse.py (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 40
    a, b = 40.0, 120.0
    nodes = measures._FAR_NODES.tolist()
    ts = nodes + [(nodes[k] + nodes[k + 1]) / 2 for k in range(0, len(nodes) - 1, 2)]
    rows = []
    for kappa in (1e-6, 0.5, 0.999):
        c = (1 - mp.mpf(kappa)) * (1 + mp.mpf(kappa))
        y0 = max(mp.mpf(b), mp.sqrt(c) * (2 * b - a))
        for t in ts:
            alpha = mp.mpf(a + (b - a) * t)

            def kernel(y):
                return 1 / (y * y * (y * y - c * alpha * alpha) ** mp.mpf(1.5))

            rise = (y0 + 1) ** 2 - y0**2
            fall = (y0 + 2) ** 2 - (y0 + 1) ** 2
            value = (mp.quad(lambda y: (y * y - y0**2) / rise * kernel(y), [y0, y0 + 1])
                     + mp.quad(lambda y: ((y0 + 2) ** 2 - y * y) / fall * kernel(y),
                               [y0 + 1, y0 + 2]))
            rows.append((kappa, t, float(value)))
    return rows


FAR_HAT = [
    # (kappa, t, value)
    (1e-06, 0.0, 3.2386674721871716e-12),
    (1e-06, 0.006819348298638814, 3.24417716599982e-12),
    (1e-06, 0.02709137914968266, 3.2610936871872957e-12),
    (1e-06, 0.06026312439675545, 3.2905519883607694e-12),
    (1e-06, 0.10542974530180318, 3.3343557696865326e-12),
    (1e-06, 0.16135921418712942, 3.3948550576097146e-12),
    (1e-06, 0.22652592093878654, 3.4747864217785717e-12),
    (1e-06, 0.2991522876735152, 3.5770734984248573e-12),
    (1e-06, 0.37725725642960045, 3.7045709398200825e-12),
    (1e-06, 0.4587103272638339, 3.8597179540281794e-12),
    (1e-06, 0.5412896727361661, 4.044054140823984e-12),
    (1e-06, 0.6227427435703995, 4.257550003232109e-12),
    (1e-06, 0.7008477123264847, 4.497732699043279e-12),
    (1e-06, 0.7734740790612132, 4.758665049916897e-12),
    (1e-06, 0.8386407858128705, 5.029979395601742e-12),
    (1e-06, 0.8945702546981967, 5.2963642998272714e-12),
    (1e-06, 0.9397368756032445, 5.538066924055189e-12),
    (1e-06, 0.9729086208503173, 5.732930904525499e-12),
    (1e-06, 0.9931806517013612, 5.8600477633879624e-12),
    (1e-06, 1.0, 5.904271111108558e-12),
    (1e-06, 0.003409674149319407, 3.241411038482553e-12),
    (1e-06, 0.04367725177321906, 3.2755429933766656e-12),
    (1e-06, 0.1333944797444663, 3.3637111488617913e-12),
    (1e-06, 0.2628391043061509, 3.524094966899313e-12),
    (1e-06, 0.4179837918467172, 3.779098799861947e-12),
    (1e-06, 0.5820162081532828, 4.146506800659544e-12),
    (1e-06, 0.7371608956938489, 4.6232206124101904e-12),
    (1e-06, 0.8666055202555336, 5.15894639345314e-12),
    (1e-06, 0.9563227482267809, 5.633540394815941e-12),
    (1e-06, 0.9965903258506805, 5.882064979435378e-12),
    (0.5, 0.0, 6.622299632133666e-12),
    (0.5, 0.006819348298638814, 6.633547775378945e-12),
    (0.5, 0.02709137914968266, 6.668082856605337e-12),
    (0.5, 0.06026312439675545, 6.7282208553346714e-12),
    (0.5, 0.10542974530180318, 6.817641961755445e-12),
    (0.5, 0.16135921418712942, 6.941140127818787e-12),
    (0.5, 0.22652592093878654, 7.104296158234542e-12),
    (0.5, 0.2991522876735152, 7.313069644216403e-12),
    (0.5, 0.37725725642960045, 7.573275420077184e-12),
    (0.5, 0.4587103272638339, 7.88987574162081e-12),
    (0.5, 0.5412896727361661, 8.265992112214235e-12),
    (0.5, 0.6227427435703995, 8.701540268996678e-12),
    (0.5, 0.7008477123264847, 9.19144957818625e-12),
    (0.5, 0.7734740790612132, 9.723586079150553e-12),
    (0.5, 0.8386407858128705, 1.0276790599871762e-11),
    (0.5, 0.8945702546981967, 1.0819842228208399e-11),
    (0.5, 0.9397368756032445, 1.1312490815973312e-11),
    (0.5, 0.9729086208503173, 1.1709612344088389e-11),
    (0.5, 0.9931806517013612, 1.1968641319491244e-11),
    (0.5, 1.0, 1.2058751147329697e-11),
    (0.5, 0.003409674149319407, 6.627900680463693e-12),
    (0.5, 0.04367725177321906, 6.6975807432872365e-12),
    (0.5, 0.1333944797444663, 6.877566315351851e-12),
    (0.5, 0.2628391043061509, 7.204939682187327e-12),
    (0.5, 0.4179837918467172, 7.725365208112141e-12),
    (0.5, 0.5820162081532828, 8.475012153541038e-12),
    (0.5, 0.7371608956938489, 9.447377774300022e-12),
    (0.5, 0.8666055202555336, 1.0539714900124767e-11),
    (0.5, 0.9563227482267809, 1.1507066714014983e-11),
    (0.5, 0.9965903258506805, 1.201350409450227e-11),
    (0.999, 0.0, 3.857223659238029e-11),
    (0.999, 0.006819348298638814, 3.857258384060069e-11),
    (0.999, 0.02709137914968266, 3.8573643921740674e-11),
    (0.999, 0.06026312439675545, 3.857546834395467e-11),
    (0.999, 0.10542974530180318, 3.8578131703007637e-11),
    (0.999, 0.16135921418712942, 3.858171622754881e-11),
    (0.999, 0.22652592093878654, 3.858629282220112e-11),
    (0.999, 0.2991522876735152, 3.859190092466998e-11),
    (0.999, 0.37725725642960045, 3.8598529683621755e-11),
    (0.999, 0.4587103272638339, 3.860610287752407e-11),
    (0.999, 0.5412896727361661, 3.861446964060944e-11),
    (0.999, 0.6227427435703995, 3.862340247761555e-11),
    (0.999, 0.7008477123264847, 3.863260329385644e-11),
    (0.999, 0.7734740790612132, 3.864171731833603e-11),
    (0.999, 0.8386407858128705, 3.865035394199186e-11),
    (0.999, 0.8945702546981967, 3.8658112720305764e-11),
    (0.999, 0.9397368756032445, 3.866461218342035e-11),
    (0.999, 0.9729086208503173, 3.8669518727384135e-11),
    (0.999, 0.9931806517013612, 3.8672572774479293e-11),
    (0.999, 1.0, 3.867360960635807e-11),
    (0.999, 0.003409674149319407, 3.857240962784728e-11),
    (0.999, 0.04367725177321906, 3.857454220053719e-11),
    (0.999, 0.1333944797444663, 3.857988433121424e-11),
    (0.999, 0.2628391043061509, 3.85890299635564e-11),
    (0.999, 0.4179837918467172, 3.860223197461369e-11),
    (0.999, 0.5820162081532828, 3.861885157193016e-11),
    (0.999, 0.7371608956938489, 3.863709297950088e-11),
    (0.999, 0.8666055202555336, 3.8654193314909863e-11),
    (0.999, 0.9563227482267809, 3.866705135569224e-11),
    (0.999, 0.9965903258506805, 3.867309059407505e-11),
]


def far_column_table():
    """Rows (kappa, t, y^5 left, (y + 1)^5 right) of FAR_COLUMN: the parts
    that the cell [y, y + 1] of a far cluster adds to its two nodes, over
    kappa c alpha^4 (see inverse._cells), flattened as inverse._cores
    flattens them, at the row alpha = b = 80 of a span [0, 80], to 40
    digits with alpha and kappa taken as exact.  The cluster's cells run
    from y0 = sqrt(c) b + w over w = 80, one span width, so the
    singularity, at the cell that reaches sqrt(c) alpha, lies exactly at
    the column separation of inverse._tree.  left and right integrate
    ((y + 1)^2 - s^2) and (s^2 - y^2), over (y + 1)^2 - y^2, over the
    cell against 1 / (s^2 (s^2 - c
    alpha^2)^{3/2}), c = 1 - kappa^2, at y = y0 + w t, t over the 20
    Chebyshev points measures._FAR_NODES and the midpoints of 10 pairs of
    them.  Print both tables with
    PYTHONPATH=src:tests python tests/test_inverse.py (needs mpmath)."""
    import mpmath as mp

    mp.mp.dps = 40
    b = w = 80.0
    nodes = measures._FAR_NODES.tolist()
    ts = nodes + [(nodes[k] + nodes[k + 1]) / 2 for k in range(0, len(nodes) - 1, 2)]
    rows = []
    for kappa in (1e-6, 0.5, SQRT3_2, 0.999):
        c = (1 - mp.mpf(kappa)) * (1 + mp.mpf(kappa))
        y0 = mp.sqrt(c) * b + w

        def kernel(s):
            return 1 / (s * s * (s * s - c * b * b) ** mp.mpf(1.5))

        for t in ts:
            y = y0 + w * mp.mpf(t)
            width = (y + 1) ** 2 - y * y
            left = mp.quad(lambda s: ((y + 1) ** 2 - s * s) / width * kernel(s), [y, y + 1])
            right = mp.quad(lambda s: (s * s - y * y) / width * kernel(s), [y, y + 1])
            rows.append((kappa, t, float(y ** 5 * left), float((y + 1) ** 5 * right)))
    return rows


FAR_COLUMN = [
    # (kappa, t, y^5 left, (y + 1)^5 right)
    (1e-06, 0.0, 0.7610731364842506, 0.7738371051161276),
    (1e-06, 0.006819348298638814, 0.7585419000718113, 0.7712341802456798),
    (1e-06, 0.02709137914968266, 0.7512476834253189, 0.7637318115390203),
    (1e-06, 0.06026312439675545, 0.7400095247030902, 0.7521682556166804),
    (1e-06, 0.10542974530180318, 0.7259641591791824, 0.7377077931102657),
    (1e-06, 0.16135921418712942, 0.7103263382666555, 0.7215960387965563),
    (1e-06, 0.22652592093878654, 0.6941922773318968, 0.7049588684045307),
    (1e-06, 0.2991522876735152, 0.678426974153148, 0.6886866707125102),
    (1e-06, 0.37725725642960045, 0.6636332162315308, 0.6734019598236258),
    (1e-06, 0.4587103272638339, 0.6501762786578514, 0.6594840205463274),
    (1e-06, 0.5412896727361661, 0.6382349237424706, 0.6471206653390237),
    (1e-06, 0.6227427435703995, 0.6278570618053079, 0.6363649823308708),
    (1e-06, 0.7008477123264847, 0.6190083536425732, 0.6271850346202975),
    (1e-06, 0.7734740790612132, 0.6116096052832246, 0.6195021986237569),
    (1e-06, 0.8386407858128705, 0.605563134595275, 0.6132182686485887),
    (1e-06, 0.8945702546981967, 0.6007701285968193, 0.6082333550652497),
    (1e-06, 0.9397368756032445, 0.5971413977063857, 0.6044570161653878),
    (1e-06, 0.9729086208503173, 0.5946036529887326, 0.6018147885263259),
    (1e-06, 0.9931806517013612, 0.593102940819359, 0.6002517844324182),
    (1e-06, 1.0, 0.5926063807788399, 0.599734528354418),
    (1e-06, 0.003409674149319407, 0.7598025133952371, 0.7725305307004301),
    (1e-06, 0.04367725177321906, 0.745524554537386, 0.7578436970337745),
    (1e-06, 0.1333944797444663, 0.7179197725486878, 0.7294212159251818),
    (1e-06, 0.2628391043061509, 0.6860434225600185, 0.6965499955596526),
    (1e-06, 0.4179837918467172, 0.6566763692322434, 0.666208608231594),
    (1e-06, 0.5820162081532828, 0.6328870444497217, 0.6415794528170079),
    (1e-06, 0.7371608956938489, 0.6152163567696527, 0.6232482910918542),
    (1e-06, 0.8666055202555336, 0.60312339290592, 0.6106812644976736),
    (1e-06, 0.9563227482267809, 0.5958595212581643, 0.6031224951187458),
    (1e-06, 0.9965903258506805, 0.5928541474004531, 0.5999926269115179),
    (0.5, 0.0, 0.710972881490008, 0.7240396517383018),
    (0.5, 0.006819348298638814, 0.7088922878097345, 0.7218851317939594),
    (0.5, 0.02709137914968266, 0.7028976398240826, 0.71567592033853),
    (0.5, 0.06026312439675545, 0.6936647179833705, 0.7061078207532888),
    (0.5, 0.10542974530180318, 0.6821311995017307, 0.6941471173269989),
    (0.5, 0.16135921418712942, 0.6692986177348839, 0.6808272652268995),
    (0.5, 0.22652592093878654, 0.65606994323156, 0.6670817765873219),
    (0.5, 0.2991522876735152, 0.6431565175963418, 0.6536480263044743),
    (0.5, 0.37725725642960045, 0.6310525897293665, 0.6410404117104762),
    (0.5, 0.4587103272638339, 0.6200559634127424, 0.6295710001033934),
    (0.5, 0.5412896727361661, 0.610310413104759, 0.6193927558521555),
    (0.5, 0.6227427435703995, 0.6018519180089055, 0.6105469036070486),
    (0.5, 0.7008477123264847, 0.5946489860483305, 0.6030043774317454),
    (0.5, 0.7734740790612132, 0.5886336273790571, 0.5966977559068682),
    (0.5, 0.8386407858128705, 0.583723138810895, 0.5915437959191098),
    (0.5, 0.8945702546981967, 0.5798343918236937, 0.5874582690480193),
    (0.5, 0.9397368756032445, 0.576892637916612, 0.5843651497329344),
    (0.5, 0.9729086208503173, 0.5748366088453029, 0.5822019723694201),
    (0.5, 0.9931806517013612, 0.5736212767969477, 0.5809227569187703),
    (0.5, 1.0, 0.5732192302304191, 0.580499485147552),
    (0.5, 0.003409674149319407, 0.7099284499671309, 0.722958144696731),
    (0.5, 0.04367725177321906, 0.6981952202148404, 0.7108035205509095),
    (0.5, 0.1333944797444663, 0.6755286609364027, 0.687295515716274),
    (0.5, 0.2628391043061509, 0.6493934506323785, 0.6601383353297926),
    (0.5, 0.4179837918467172, 0.6253659069862708, 0.6351111623348944),
    (0.5, 0.5820162081532828, 0.605950238757797, 0.6148343661543759),
    (0.5, 0.7371608956938489, 0.5915651265179248, 0.5997721172283124),
    (0.5, 0.8666055202555336, 0.5817432508315173, 0.5894641777877785),
    (0.5, 0.9563227482267809, 0.5758539529305696, 0.5832724777975141),
    (0.5, 0.9965903258506805, 0.5734198324379771, 0.5807106834888544),
    (0.8660254037844386, 0.0, 0.5886401583155673, 0.602859240030359),
    (0.8660254037844386, 0.006819348298638814, 0.5876865515862091, 0.6018240698711138),
    (0.8660254037844386, 0.02709137914968266, 0.5849423081740679, 0.5988431718547309),
    (0.8660254037844386, 0.06026312439675545, 0.5807257277202497, 0.5942571000467755),
    (0.8660254037844386, 0.10542974530180318, 0.5754770424095681, 0.5885377699818372),
    (0.8660254037844386, 0.16135921418712942, 0.5696639033268055, 0.582188040537264),
    (0.8660254037844386, 0.22652592093878654, 0.5637043320132995, 0.5756594899858474),
    (0.8660254037844386, 0.2991522876735152, 0.5579232634155417, 0.5693055805960079),
    (0.8660254037844386, 0.37725725642960045, 0.5525416337879889, 0.563369307679301),
    (0.8660254037844386, 0.4587103272638339, 0.5476874415855998, 0.5579943060479285),
    (0.8660254037844386, 0.5412896727361661, 0.5434169045976339, 0.5532469076732061),
    (0.8660254037844386, 0.6227427435703995, 0.5397370297543889, 0.5491399375934997),
    (0.8660254037844386, 0.7008477123264847, 0.536624971932575, 0.545653287287293),
    (0.8660254037844386, 0.7734740790612132, 0.5340426395658946, 0.5427495587310811),
    (0.8660254037844386, 0.8386407858128705, 0.5319467455433622, 0.5403849280648056),
    (0.8660254037844386, 0.8945702546981967, 0.5302952163960741, 0.5385161536889663),
    (0.8660254037844386, 0.9397368756032445, 0.5290509947586882, 0.5371048004599145),
    (0.8660254037844386, 0.9729086208503173, 0.5281841267396853, 0.5361196127523234),
    (0.8660254037844386, 0.9931806517013612, 0.5276728059511866, 0.5355377442849579),
    (0.8660254037844386, 1.0, 0.527503836471368, 0.5353453348441826),
    (0.8660254037844386, 0.003409674149319407, 0.5881613873915097, 0.6023395616563293),
    (0.8660254037844386, 0.04367725177321906, 0.5827931863542029, 0.5965066409379612),
    (0.8660254037844386, 0.1333944797444663, 0.5724823954602936, 0.5852688252920221),
    (0.8660254037844386, 0.2628391043061509, 0.5607106163893976, 0.5723718910052604),
    (0.8660254037844386, 0.4179837918467172, 0.550026949131023, 0.5605874449980323),
    (0.8660254037844386, 0.5820162081532828, 0.5415167414502929, 0.5511282189199416),
    (0.8660254037844386, 0.7371608956938489, 0.5352991282502368, 0.5441637027341142),
    (0.8660254037844386, 0.8666055202555336, 0.5311049561473686, 0.5394330411734611),
    (0.8660254037844386, 0.9563227482267809, 0.5286127751980277, 0.5366069662464558),
    (0.8660254037844386, 0.9965903258506805, 0.5275881328766938, 0.53544133307614),
    (0.999, 0.0, 0.4925091482321729, 0.5103891867797784),
    (0.999, 0.006819348298638814, 0.4925483662055533, 0.5103126332464762),
    (0.999, 0.02709137914968266, 0.49266268131608576, 0.5100914952791322),
    (0.999, 0.06026312439675545, 0.49284269960056015, 0.5097491605789413),
    (0.999, 0.10542974530180318, 0.49307464283311814, 0.5093183218566285),
    (0.999, 0.16135921418712942, 0.4933425645776494, 0.5088343200599538),
    (0.999, 0.22652592093878654, 0.49363051588570284, 0.5083295990103263),
    (0.999, 0.2991522876735152, 0.4939242013454221, 0.5078304155062815),
    (0.999, 0.37725725642960045, 0.49421192754454324, 0.5073557917523289),
    (0.999, 0.4587103272638339, 0.4944848908023182, 0.506918036295887),
    (0.999, 0.5412896727361661, 0.4947369908123562, 0.5065240451653724),
    (0.999, 0.6227427435703995, 0.4949643849266213, 0.5061767876169124),
    (0.999, 0.7008477123264847, 0.49516495648837766, 0.5058766419931321),
    (0.999, 0.7734740790612132, 0.49533780712236675, 0.5056224520279765),
    (0.999, 0.8386407858128705, 0.4954828267382565, 0.5054122946614266),
    (0.999, 0.8945702546981967, 0.4956003567879781, 0.5052440045881602),
    (0.999, 0.9397368756032445, 0.49569094126534546, 0.5051155150189386),
    (0.999, 0.9729086208503173, 0.49575515113577945, 0.5050250692696409),
    (0.999, 0.9931806517013612, 0.49579346634724125, 0.5049713462054992),
    (0.999, 1.0, 0.4958062016857288, 0.5049535302848855),
    (0.999, 0.003409674149319407, 0.49252880601107074, 0.5103507703883339),
    (0.999, 0.04367725177321906, 0.49275375627057777, 0.5099174124175254),
    (0.999, 0.1333944797444663, 0.49321114767904217, 0.5090699418059025),
    (0.999, 0.2628391043061509, 0.4937807267154184, 0.5080723718286353),
    (0.999, 0.4179837918467172, 0.49435163633769635, 0.5071302556379882),
    (0.999, 0.5820162081532828, 0.4948531583657324, 0.5063457014251612),
    (0.999, 0.7371608956938489, 0.49525293480207805, 0.5057467539754688),
    (0.999, 0.8666055202555336, 0.4955423580490431, 0.505326827668088),
    (0.999, 0.9563227482267809, 0.4957232848898577, 0.5050698907330342),
    (0.999, 0.9965903258506805, 0.4957998435821236, 0.504962422329058),
]


def cell_table():
    """Rows (kappa, i, m, left, right) of CELLS: what inverse._cells gives
    for the cell [m, m + 1] of row i, to 40 digits with i, m and kappa
    taken as exact.  The parts come from the antiderivatives, not from
    _cells' form: in x = y / i, with u = sqrt(x^2 - c) and c = 1 - kappa^2,

        A(x) = int dx / (x^2 u^3) = -(2x^2 - c) / (c^2 x u)
        C(x) = int dx / u^3       = -x / (c u) ,

    right = (dC - x1^2 dA) / (x2^2 - x1^2) and left = dA - right, both
    over i^4, at 200 digits: the differences cancel up to 53 digits on
    these grid cells and up to 146 on the row at alpha = 0, which keeps
    more than 40.  Per kappa: diagonal cells up to i = 2^26 - 2, near
    cells, far cells up to m = 2^26 - 1, and from the first far part of
    the tree at n = 2001 that has cores, its Chebyshev rows with the
    Chebyshev cells of its first core and with its last exact column,
    and a row at 2^-100, whose cells are those of row 0, alpha = 0, to the
    last bit.  Print it with
    PYTHONPATH=src:tests python tests/test_inverse.py (needs mpmath)."""
    import mpmath as mp

    nodes = measures._FAR_NODES
    big = 2**26
    cells = [(i, i) for i in (1, 2, 3, 7, 40, 1000, 20000, 2**20 + 3, 2**25, big - 2)]
    cells += [(i, i + d) for i in (1, 7, 1000, 20000, 2**25) for d in (1, 2, 5)]
    cells += [(1, big - 1), (3, big - 1), (1000, 50000), (1000, big - 1), (20000, big - 1),
              (2**25, big - 1), (1, 1500), (10, 1000), (500, 1800), (2**20, 2**24 + 7), (7, 64)]
    rows = []
    with mp.workdps(200):
        for kappa in (1e-6, 0.005, 0.5, 0.999):
            lo, j, top, cores, hi = next(part for part in far_parts(inverse._tree(2001, kappa))
                                         if part[3])
            x = (lo + (hi - lo - 1.0) * nodes).tolist()
            p, e = cores[0]
            y = (p - 1.0 + (e - p) * nodes).tolist()
            far = [(x[a], y[b]) for a in (0, 6, 13, 19) for b in (0, 9, 19)]
            far += [(x[a], top - 2.0) for a in (0, 19)]
            far += [(2.0**-100, 200.0), (2.0**-100, 1999.0)]
            c = (1 - mp.mpf(kappa)) * (1 + mp.mpf(kappa))

            def A(x):
                return -(2 * x * x - c) / (c * c * x * mp.sqrt(x * x - c))

            def C(x):
                return -x / (c * mp.sqrt(x * x - c))

            for i, m in [(float(i), float(m)) for i, m in cells] + far:
                x1, x2 = mp.mpf(m) / mp.mpf(i), (mp.mpf(m) + 1) / mp.mpf(i)
                dA = A(x2) - A(x1)
                right = (C(x2) - C(x1) - x1 * x1 * dA) / (x2 * x2 - x1 * x1)
                i4 = mp.mpf(i) ** 4
                rows.append((kappa, i, m, float((dA - right) / i4), float(right / i4)))
    return rows


CELLS = [
    # (kappa, i, m, left, right)
    (1e-06, 1.0, 1.0, 999997.69060259, 0.2886744679291566),
    (1e-06, 2.0, 2.0, 62499.83229518919, 0.03726769962515302),
    (1e-06, 3.0, 3.0, 12345.641682589969, 0.0104989813931652),
    (1e-06, 7.0, 7.0, 416.4914072583496, 0.000658667916026873),
    (1e-06, 40.0, 40.0, 0.3906214409888262, 1.6937515056258783e-06),
    (1e-06, 1000.0, 1000.0, 9.999552461089045e-07, 2.233175945811156e-11),
    (1e-06, 20000.0, 20000.0, 6.248750078134861e-12, 6.248359521004776e-16),
    (1e-06, 1048579.0, 1048579.0, 8.259741389886939e-19, 5.980691465292992e-22),
    (1e-06, 33554432.0, 33554432.0, 7.824249721126759e-25, 3.204785682807289e-27),
    (1e-06, 67108862.0, 67108862.0, 4.8735915218698724e-26, 2.823038306688125e-28),
    (1e-06, 1.0, 2.0, 0.012254038523359097, 0.0050026902784401925),
    (1e-06, 1.0, 3.0, 0.001568638907285191, 0.000859178914100379),
    (1e-06, 1.0, 6.0, 5.318542197108316e-05, 3.8927742886034076e-05),
    (1e-06, 7.0, 8.0, 8.549123318094967e-05, 5.2028307646867675e-05),
    (1e-06, 7.0, 9.0, 2.5556690759725014e-05, 1.8219524084901805e-05),
    (1e-06, 7.0, 12.0, 3.207105155661486e-06, 2.6340394391917375e-06),
    (1e-06, 1000.0, 1001.0, 3.82358108766099e-12, 2.7003071771455848e-12),
    (1e-06, 1000.0, 1002.0, 1.5874526477589898e-12, 1.2945341166374592e-12),
    (1e-06, 1000.0, 1005.0, 4.4896162348287403e-13, 4.0933454906322047e-13),
    (1e-06, 20000.0, 20001.0, 1.0721497192134103e-16, 7.580769607057742e-17),
    (1e-06, 20000.0, 20002.0, 4.463140176701069e-17, 3.643910971581272e-17),
    (1e-06, 20000.0, 20005.0, 1.2722086483018543e-17, 1.1612897261577666e-17),
    (1e-06, 33554432.0, 33554433.0, 5.543705767838176e-28, 3.920008236775145e-28),
    (1e-06, 33554432.0, 33554434.0, 2.308075884900966e-28, 1.884538633094657e-28),
    (1e-06, 33554432.0, 33554437.0, 6.581888923457615e-29, 6.008416513523974e-29),
    (1e-06, 1.0, 67108863.0, 3.673420037903431e-40, 3.673419928426984e-40),
    (1e-06, 3.0, 67108863.0, 3.673420037903441e-40, 3.673419928426993e-40),
    (1e-06, 1000.0, 50000.0, 1.6009124398783894e-24, 1.6008483924903104e-24),
    (1e-06, 1000.0, 67108863.0, 3.673420039126924e-40, 3.6734199296504766e-40),
    (1e-06, 20000.0, 67108863.0, 3.673420527301354e-40, 3.673420417824887e-40),
    (1e-06, 33554432.0, 67108863.0, 5.655600183460807e-40, 5.655599986819119e-40),
    (1e-06, 1.0, 1500.0, 6.57778800891521e-17, 6.569026385553495e-17),
    (1e-06, 10.0, 1000.0, 4.993258459005889e-16, 4.983286404283275e-16),
    (1e-06, 500.0, 1800.0, 2.982196532088758e-17, 2.9787474918663545e-17),
    (1e-06, 1048576.0, 16777223.0, 3.783722302834936e-37, 3.783721850895897e-37),
    (1e-06, 7.0, 64.0, 4.631727081805016e-10, 4.489478910685437e-10),
    (1e-06, 1812.0, 1936.0, 4.1919080888820933e-16, 4.1723947573356525e-16),
    (1e-06, 1812.0, 1964.4400402903577, 2.955501973115686e-16, 2.943966843767221e-16),
    (1e-06, 1812.0, 1998.0, 2.0931079017256066e-16, 2.086185820680115e-16),
    (1e-06, 1826.0446070982048, 1936.0, 4.989545055348126e-16, 4.963785745827232e-16),
    (1e-06, 1826.0446070982048, 1964.4400402903577, 3.3965295669800137e-16, 3.3821565397908313e-16),
    (1e-06, 1826.0446070982048, 1998.0, 2.3412384267659913e-16, 2.3329874488273937e-16),
    (1e-06, 1859.9553929017952, 1936.0, 8.542100667391605e-16, 8.480985250340571e-16),
    (1e-06, 1859.9553929017952, 1964.4400402903577, 5.103073195249285e-16, 5.075579291353947e-16),
    (1e-06, 1859.9553929017952, 1998.0, 3.2098198307314505e-16, 3.1962424504397163e-16),
    (1e-06, 1874.0, 1936.0, 1.1522175044704297e-15, 1.1422963378356101e-15),
    (1e-06, 1874.0, 1964.4400402903577, 6.29740245909091e-16, 6.258871460683231e-16),
    (1e-06, 1874.0, 1998.0, 3.748289823783805e-16, 3.7309172399938373e-16),
    (1e-06, 1812.0, 1997.0, 2.1130167037625036e-16, 2.1059977448862114e-16),
    (1e-06, 1874.0, 1997.0, 3.799241591644274e-16, 3.781508809146143e-16),
    (1e-06, 7.888609052210118e-31, 200.0, 1.5508588896314448e-12, 1.535465844539932e-12),
    (1e-06, 7.888609052210118e-31, 1999.0, 1.5652375029321306e-17, 1.5636726567385743e-17),
    (0.005, 1.0, 1.0, 197.70880795091992, 0.2853668947028083),
    (0.005, 2.0, 2.0, 12.333722403056495, 0.03677168789675477),
    (0.005, 3.0, 3.0, 2.432147442441432, 0.01034156871913761),
    (0.005, 7.0, 7.0, 0.08159771404720471, 0.0006451946047614),
    (0.005, 40.0, 40.0, 7.464793952754362e-05, 1.6179840598643595e-06),
    (0.005, 1000.0, 1000.0, 1.599768959467635e-10, 1.7753070274438185e-11),
    (0.005, 20000.0, 20000.0, 4.774480981666856e-16, 2.135084700414595e-16),
    (0.005, 1048579.0, 1048579.0, 3.0404781041730165e-24, 2.9307316480506765e-24),
    (0.005, 33554432.0, 33554432.0, 9.392760955850843e-32, 9.381583614664055e-32),
    (0.005, 67108862.0, 67108862.0, 2.9369859736587704e-33, 2.9352369133858596e-33),
    (0.005, 1.0, 2.0, 0.012253918615075817, 0.005002654353742123),
    (0.005, 1.0, 3.0, 0.0015686327133348557, 0.0008591761480149139),
    (0.005, 1.0, 6.0, 5.318537014088223e-05, 3.892770871553774e-05),
    (0.005, 7.0, 8.0, 8.548285645104982e-05, 5.202433820022753e-05),
    (0.005, 7.0, 9.0, 2.555541715915358e-05, 1.8218746037221828e-05),
    (0.005, 7.0, 12.0, 3.207047511331836e-06, 2.6339956330575638e-06),
    (0.005, 1000.0, 1001.0, 3.766652431026882e-12, 2.6683512042038097e-12),
    (0.005, 1000.0, 1002.0, 1.5744947336065126e-12, 1.2852984435472488e-12),
    (0.005, 1000.0, 1005.0, 4.4738461347478514e-13, 4.0798152489892656e-13),
    (0.005, 20000.0, 20001.0, 8.154629272319857e-17, 6.07772363868733e-17),
    (0.005, 20000.0, 20002.0, 3.8185639267418e-17, 3.177039029590324e-17),
    (0.005, 20000.0, 20005.0, 1.1873687357584363e-17, 1.0881734515764866e-17),
    (0.005, 33554432.0, 33554433.0, 9.359295588117206e-32, 9.348184513166177e-32),
    (0.005, 33554432.0, 33554434.0, 9.326028468211602e-32, 9.314983110783711e-32),
    (0.005, 33554432.0, 33554437.0, 9.227400279389782e-32, 9.216548840158794e-32),
    (0.005, 1.0, 67108863.0, 3.67342003790343e-40, 3.673419928426983e-40),
    (0.005, 3.0, 67108863.0, 3.67342003790344e-40, 3.6734199284269926e-40),
    (0.005, 1000.0, 50000.0, 1.6009124158554153e-24, 1.6008483684686177e-24),
    (0.005, 1000.0, 67108863.0, 3.673420039126894e-40, 3.673419929650446e-40),
    (0.005, 20000.0, 67108863.0, 3.673420527289119e-40, 3.673420417812652e-40),
    (0.005, 33554432.0, 67108863.0, 5.655529489195868e-40, 5.655529292557574e-40),
    (0.005, 1.0, 1500.0, 6.577788008805628e-17, 6.569026385444108e-17),
    (0.005, 10.0, 1000.0, 4.993258440291764e-16, 4.983286385618967e-16),
    (0.005, 500.0, 1800.0, 2.9821871853302756e-17, 2.978738159662699e-17),
    (0.005, 1048576.0, 16777223.0, 3.783721746405764e-37, 3.783721294466814e-37),
    (0.005, 7.0, 64.0, 4.631725000472724e-10, 4.489476914263667e-10),
    (0.005, 1812.0, 1936.0, 4.1908008476238394e-16, 4.1712957141237446e-16),
    (0.005, 1812.0, 1964.4400402903577, 2.954871399277045e-16, 2.94334015356293e-16),
    (0.005, 1812.0, 1998.0, 2.09274496998692e-16, 2.0858247666248637e-16),
    (0.005, 1826.0446070982048, 1936.0, 4.988041852006198e-16, 4.962294940117083e-16),
    (0.005, 1826.0446070982048, 1964.4400402903577, 3.395722132360072e-16, 3.381354519350715e-16),
    (0.005, 1826.0446070982048, 1998.0, 2.340794188867353e-16, 2.332545669676331e-16),
    (0.005, 1859.9553929017952, 1936.0, 8.538280144522538e-16, 8.47720886992618e-16),
    (0.005, 1859.9553929017952, 1964.4400402903577, 5.1014222963598e-16, 5.07394263348435e-16),
    (0.005, 1859.9553929017952, 1998.0, 3.209040052853573e-16, 3.1954679034537826e-16),
    (0.005, 1874.0, 1936.0, 1.1515788924260108e-15, 1.141666645763846e-15),
    (0.005, 1874.0, 1964.4400402903577, 6.29502314406773e-16, 6.256515557468117e-16),
    (0.005, 1874.0, 1998.0, 3.7472647655520044e-16, 3.7298997477584204e-16),
    (0.005, 1812.0, 1997.0, 2.1126482466565733e-16, 2.1056312029911813e-16),
    (0.005, 1874.0, 1997.0, 3.798193906470433e-16, 3.7804689136493355e-16),
    (0.005, 7.888609052210118e-31, 200.0, 1.5508588896314448e-12, 1.535465844539932e-12),
    (0.005, 7.888609052210118e-31, 1999.0, 1.5652375029321306e-17, 1.5636726567385743e-17),
    (0.5, 1.0, 1.0, 0.7637910809315682, 0.1059187656169552),
    (0.5, 2.0, 2.0, 0.04006803429557625, 0.010905137668944293),
    (0.5, 3.0, 3.0, 0.0068005483168555635, 0.002515507326927465),
    (0.5, 7.0, 7.0, 0.00014697816298594592, 8.622747306514272e-05),
    (0.5, 40.0, 40.0, 3.514745922644613e-08, 3.1269974556937986e-08),
    (0.5, 1000.0, 1000.0, 3.982088526186371e-15, 3.96228495501477e-15),
    (0.5, 20000.0, 20000.0, 1.249718819512642e-21, 1.2494064741383293e-21),
    (0.5, 1048579.0, 1048579.0, 3.1553849408897915e-30, 3.15536989496244e-30),
    (0.5, 33554432.0, 33554432.0, 9.403953545409868e-38, 9.403952144111817e-38),
    (0.5, 67108862.0, 67108862.0, 2.9387361179039106e-39, 2.938735898951019e-39),
    (0.5, 1.0, 2.0, 0.01114868191863838, 0.0046649497719046034),
    (0.5, 1.0, 3.0, 0.0015087086783858734, 0.0008322593909928828),
    (0.5, 1.0, 6.0, 5.267131728472029e-05, 3.858853510103259e-05),
    (0.5, 7.0, 8.0, 4.054695877443407e-05, 2.8283449705645877e-05),
    (0.5, 7.0, 9.0, 1.6641116982215393e-05, 1.252712340256308e-05),
    (0.5, 7.0, 12.0, 2.706528907872068e-06, 2.2498386532202315e-06),
    (0.5, 1000.0, 1001.0, 3.927006210658342e-15, 3.907588278825893e-15),
    (0.5, 1000.0, 1002.0, 3.8730125350527556e-15, 3.853970201557914e-15),
    (0.5, 1000.0, 1005.0, 3.717281949124968e-15, 3.699309397439899e-15),
    (0.5, 20000.0, 20001.0, 1.2488445455882637e-21, 1.2485325091768467e-21),
    (0.5, 20000.0, 20002.0, 1.2479711513390213e-21, 1.2476594234790462e-21),
    (0.5, 20000.0, 20005.0, 1.2453562348017265e-21, 1.2450454301343086e-21),
    (0.5, 33554432.0, 33554433.0, 9.40394962177611e-38, 9.403948220478886e-38),
    (0.5, 33554432.0, 33554434.0, 9.403945698144707e-38, 9.40394429684831e-38),
    (0.5, 33554432.0, 33554437.0, 9.403933927264631e-38, 9.403932525970714e-38),
    (0.5, 1.0, 67108863.0, 3.67342003790343e-40, 3.673419928426983e-40),
    (0.5, 3.0, 67108863.0, 3.6734200379034376e-40, 3.67341992842699e-40),
    (0.5, 1000.0, 50000.0, 1.600672240160346e-24, 1.600608205585252e-24),
    (0.5, 1000.0, 67108863.0, 3.67342003882105e-40, 3.673419929344603e-40),
    (0.5, 20000.0, 67108863.0, 3.673420404951863e-40, 3.673420295475401e-40),
    (0.5, 33554432.0, 67108863.0, 5.015746042723824e-40, 5.0157458759951515e-40),
    (0.5, 1.0, 1500.0, 6.57778691310363e-17, 6.569025291687647e-17),
    (0.5, 10.0, 1000.0, 4.993071323601149e-16, 4.983099767019961e-16),
    (0.5, 500.0, 1800.0, 2.891111776781462e-17, 2.887803642678561e-17),
    (0.5, 1048576.0, 16777223.0, 3.7781648214033615e-37, 3.7781643703495535e-37),
    (0.5, 7.0, 64.0, 4.610991422691952e-10, 4.4695884160943346e-10),
    (0.5, 1875.0, 1937.0, 1.1292415870870694e-16, 1.1267032034468504e-16),
    (0.5, 1875.0, 1965.4400402903577, 9.514449973509162e-17, 9.494402016743955e-17),
    (0.5, 1875.0, 1999.0, 7.881944099629289e-17, 7.866440116745398e-17),
    (0.5, 1889.0446070982048, 1937.0, 1.1921758314056857e-16, 1.1894200771015015e-16),
    (0.5, 1889.0446070982048, 1965.4400402903577, 9.994748497996753e-17, 9.973155960459597e-17),
    (0.5, 1889.0446070982048, 1999.0, 8.239455258720243e-17, 8.222885696925779e-17),
    (0.5, 1922.9553929017952, 1937.0, 1.3734050965870654e-16, 1.3699868510880184e-16),
    (0.5, 1922.9553929017952, 1965.4400402903577, 1.135625634025372e-16, 1.1330057838031282e-16),
    (0.5, 1922.9553929017952, 1999.0, 9.237530030637507e-17, 9.217849270877602e-17),
    (0.5, 1937.0, 1937.0, 1.463539148451878e-16, 1.4597717975366972e-16),
    (0.5, 1937.0, 1965.4400402903577, 1.2022032732315025e-16, 1.19934626250921e-16),
    (0.5, 1937.0, 1999.0, 9.717682100848476e-17, 9.69643472071638e-17),
    (0.5, 1875.0, 1999.0, 7.881944099629289e-17, 7.866440116745398e-17),
    (0.5, 1937.0, 1999.0, 9.717682100848476e-17, 9.69643472071638e-17),
    (0.5, 7.888609052210118e-31, 200.0, 1.5508588896314448e-12, 1.535465844539932e-12),
    (0.5, 7.888609052210118e-31, 1999.0, 1.5652375029321306e-17, 1.5636726567385743e-17),
    (0.999, 1.0, 1.0, 0.18792249979407816, 0.046945376265408),
    (0.999, 2.0, 2.0, 0.008701808466346718, 0.003865320401824328),
    (0.999, 3.0, 3.0, 0.0013537745822426415, 0.0007611647657780718),
    (0.999, 7.0, 7.0, 2.4471508773525798e-05, 1.8731602607153566e-05),
    (0.999, 40.0, 40.0, 4.719542775949919e-09, 4.49191199223353e-09),
    (0.999, 1000.0, 1000.0, 5.007507507510012e-16, 4.997497500009995e-16),
    (0.999, 20000.0, 20000.0, 1.5670792017856446e-22, 1.5669223487019661e-22),
    (0.999, 1048579.0, 1048579.0, 3.956098885372901e-31, 3.956091332188537e-31),
    (0.999, 33554432.0, 33554432.0, 1.1790278458364266e-38, 1.1790277754905128e-38),
    (0.999, 67108862.0, 67108862.0, 3.68446264973063e-40, 3.684462539815114e-40),
    (0.999, 1.0, 2.0, 0.008685860457003494, 0.0038598463729182277),
    (0.999, 1.0, 3.0, 0.0013506930051000602, 0.0007597278953137967),
    (0.999, 1.0, 6.0, 5.118176452400336e-05, 3.760265204519094e-05),
    (0.999, 7.0, 8.0, 1.2837247055374511e-05, 1.0141378883406886e-05),
    (0.999, 7.0, 9.0, 7.252068044813839e-06, 5.8734995858542076e-06),
    (0.999, 7.0, 12.0, 1.7852117463550168e-06, 1.5210505915652638e-06),
    (0.999, 1000.0, 1001.0, 4.982522499974965e-16, 4.972572392584869e-16),
    (0.999, 1000.0, 1002.0, 4.957686968474061e-16, 4.94779634334753e-16),
    (0.999, 1000.0, 1005.0, 4.884066846913332e-16, 4.874352194635487e-16),
    (0.999, 20000.0, 20001.0, 1.5666870259650363e-22, 1.5665302199906963e-22),
    (0.999, 20000.0, 20002.0, 1.5662949679367999e-22, 1.566138209055289e-22),
    (0.999, 20000.0, 20005.0, 1.565119500193581e-22, 1.5649628824915674e-22),
    (0.999, 33554432.0, 33554433.0, 1.1790276699364608e-38, 1.1790275995905596e-38),
    (0.999, 33554432.0, 33554434.0, 1.1790274940365266e-38, 1.179027423690638e-38),
    (0.999, 33554432.0, 33554437.0, 1.1790269663369127e-38, 1.1790268959910618e-38),
    (0.999, 1.0, 67108863.0, 3.673420037903429e-40, 3.673419928426982e-40),
    (0.999, 3.0, 67108863.0, 3.673420037903429e-40, 3.673419928426982e-40),
    (0.999, 1000.0, 50000.0, 1.5999539202387306e-24, 1.59988992397623e-24),
    (0.999, 1000.0, 67108863.0, 3.6734200379058756e-40, 3.673419928429428e-40),
    (0.999, 20000.0, 67108863.0, 3.673420038881736e-40, 3.673419929405288e-40),
    (0.999, 33554432.0, 67108863.0, 3.676175446651789e-40, 3.676175337065834e-40),
    (0.999, 1.0, 1500.0, 6.577783634432819e-17, 6.569022018838467e-17),
    (0.999, 10.0, 1000.0, 4.992511483522968e-16, 4.982541417150741e-16),
    (0.999, 500.0, 1800.0, 2.6445156130894924e-17, 2.6415794830152964e-17),
    (0.999, 1048576.0, 16777223.0, 3.761617798352297e-37, 3.761617349930989e-37),
    (0.999, 7.0, 64.0, 4.5498651994306837e-10, 4.410944627948763e-10),
    (0.999, 1875.0, 1937.0, 1.8374122724757547e-17, 1.8355147904976672e-17),
    (0.999, 1875.0, 1965.4400402903577, 1.7081479307485056e-17, 1.7064094915300062e-17),
    (0.999, 1875.0, 1999.0, 1.5693743725262323e-17, 1.5678040097722328e-17),
    (0.999, 1889.0446070982048, 1937.0, 1.83749002162783e-17, 1.8355924325875488e-17),
    (0.999, 1889.0446070982048, 1965.4400402903577, 1.7082181300009526e-17, 1.706479595517316e-17),
    (0.999, 1889.0446070982048, 1999.0, 1.5694367177530328e-17, 1.567866271814622e-17),
    (0.999, 1922.9553929017952, 1937.0, 1.8376801622073677e-17, 1.835782311331618e-17),
    (0.999, 1922.9553929017952, 1965.4400402903577, 1.7083898062124365e-17, 1.7066510387456878e-17),
    (0.999, 1922.9553929017952, 1999.0, 1.5695891859040596e-17, 1.5680185365285038e-17),
    (0.999, 1937.0, 1937.0, 1.8377599119153143e-17, 1.8358619512158694e-17),
    (0.999, 1937.0, 1965.4400402903577, 1.708461811249627e-17, 1.7067229460613825e-17),
    (0.999, 1937.0, 1999.0, 1.5696531343758263e-17, 1.568082399671839e-17),
    (0.999, 1875.0, 1999.0, 1.5693743725262323e-17, 1.5678040097722328e-17),
    (0.999, 1937.0, 1999.0, 1.5696531343758263e-17, 1.568082399671839e-17),
    (0.999, 7.888609052210118e-31, 200.0, 1.5508588896314448e-12, 1.535465844539932e-12),
    (0.999, 7.888609052210118e-31, 1999.0, 1.5652375029321306e-17, 1.5636726567385743e-17),
]


class TestApplyT:
    def test_constant_against_antiderivative(self):
        v = np.ones(1001)
        tv = apply_T(v, 0.5, 10.0)
        oracle = closed_tail_integral(5.0, 10.0, 0.5)
        assert abs(tv[500] - oracle) <= 1e-6

    def test_constant_against_quadrature(self):
        v = np.ones(1001)
        tv = apply_T(v, 0.5, 10.0)
        for idx, alpha in ((200, 2.0), (700, 7.0)):
            c0 = 0.75 * alpha * alpha
            ref, _ = quad(
                lambda y: 0.375 * alpha**4 / (y * y * (y * y - c0) ** 1.5),
                alpha,
                10.0,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert tv[idx] == pytest.approx(ref, abs=1e-9)

    def test_zero_at_alpha_max(self):
        tv = apply_T(np.ones(101), 0.5, 10.0)
        assert tv[-1] == 0.0

    def test_near_zero_alpha_reaches_full_integral(self):
        tv = apply_T(np.ones(1001), 0.5, 10.0)
        assert abs(tv[10] - 1.0 / 3.0) <= 1e-3

    def test_linear(self):
        rng = np.random.default_rng(23)
        v1 = rng.uniform(-1, 1, 301)
        v2 = rng.uniform(-1, 1, 301)
        a, b = 1.7, -0.4
        combo = apply_T(a * v1 + b * v2, 0.5, 10.0)
        parts = a * apply_T(v1, 0.5, 10.0) + b * apply_T(v2, 0.5, 10.0)
        bound = 1e-12 * (abs(a) * np.max(np.abs(v1)) + abs(b) * np.max(np.abs(v2)))
        assert np.max(np.abs(combo - parts)) <= bound

    def test_positive(self):
        rng = np.random.default_rng(24)
        v = rng.uniform(0, 5, 301)
        assert np.all(apply_T(v, 0.5, 10.0) >= 0)

    def test_contraction_factor(self):
        rng = np.random.default_rng(25)
        for kappa in (0.2, 0.5, 0.8):
            q = (1 - kappa) / (1 + kappa)
            for _ in range(10):
                d = rng.uniform(-1, 1, 401)
                ratio = np.max(np.abs(apply_T(d, kappa, 10.0))) / np.max(np.abs(d))
                assert ratio <= q + 1e-12

    def test_input_validation(self):
        with pytest.raises(ArgumentError):
            apply_T(np.ones(1), 0.5, 10.0)
        with pytest.raises(ArgumentError):
            apply_T(np.ones(11), 0.5, 0.0)


UNIFORM_PIECE = Measure(pieces=((3.0, 9.0, 1.0),))


class TestH:
    # the atom (L, S) = (1, 1) seen up to alpha_max = 2 at kappa = 0.5:
    # V_w(alpha_max) = 4.5 and V_w'(alpha_max) = 6
    def test_zero_at_origin(self):
        assert h_of_alpha(4.5, 6.0, 0.5, 2.0, 0.0) == 0.0

    def test_equals_v_max_at_alpha_max(self):
        # single-atom system: R(alpha_max) = kappa alpha_max and TV term drops
        assert h_of_alpha(4.5, 6.0, 0.5, 2.0, 2.0) == pytest.approx(5.5, abs=1e-12)

    def test_nondecreasing(self):
        alphas = np.linspace(0, 2, 50)
        h = h_of_alpha(4.5, 6.0, 0.5, 2.0, alphas)
        assert np.all(np.diff(h) > 0)

    def test_domain_check(self):
        with pytest.raises(ArgumentError):
            h_of_alpha(4.5, 6.0, 0.5, 2.0, 2.5)
        for alpha_max in (0.0, -2.0):
            with pytest.raises(ArgumentError, match="alpha_max must be > 0"):
                h_of_alpha(4.5, 6.0, 0.5, alpha_max, 0.0)
        # NaN fails every comparison, so the check must ask for valid alphas
        for alpha in (math.nan, [1.0, math.nan]):
            with pytest.raises(ArgumentError, match="alpha must lie"):
                h_of_alpha(1.0, 1.0, 0.5, 10.0, alpha)
        with pytest.raises(ArgumentError, match="alpha_max must be > 0 and finite"):
            h_of_alpha(4.5, 6.0, 0.5, math.inf, 0.0)

    @pytest.mark.parametrize("kappa", [0.1, 0.5, 0.999])
    def test_against_a_decimal_reference(self, kappa):
        # alpha_max - R cancels at small alpha; the gap r2/(1+rho) does not
        vw, vwp, alpha_max = 30, 9, 10
        grid = np.linspace(0.0, alpha_max, 201)[1:]
        ref = []
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            k = decimal.Decimal(kappa)
            c = 1 - k * k
            for a in grid.tolist():
                R = (alpha_max * alpha_max - c * decimal.Decimal(a) ** 2).sqrt()
                gap = alpha_max - R
                ref.append(float(k / c * gap * vwp + k / c * gap * gap / (alpha_max * R) * vw))
        h = h_of_alpha(vw, vwp, kappa, alpha_max, grid)
        assert np.max(np.abs(h / np.array(ref) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("kappa", [1e-6, 1.1e-6, 1.2e-6, 0.005, 0.5, 0.999])
    def test_closed_form_at_alpha_max(self, kappa):
        # R(alpha_max) = kappa alpha_max, so h(alpha_max) is
        # kappa/(1+kappa) alpha_max V_w' + (1-kappa)/(1+kappa) V_w, here
        # taken exactly; a rho of sqrt(1 - fl(1-kappa^2)) would keep only
        # the last bits of kappa
        vw, vwp, alpha_max = 30.0, 9.0, 10.0
        k = fractions.Fraction(kappa)
        want = float((k * alpha_max * vwp + (1 - k) * vw) / (1 + k))
        got = h_of_alpha(vw, vwp, kappa, alpha_max, alpha_max)
        assert abs(got / want - 1.0) <= 1e-15

    @pytest.mark.parametrize("mu", [UNIFORM_PIECE, Measure(atoms=((4.0, 1.0), (7.0, 0.5)))],
                             ids=["piece", "atoms"])
    def test_v_does_not_depend_on_the_magnitude_of_alpha_max(self, mu):
        # h is computed in units of alpha_max, so no alpha_max^2 overflows;
        # the same curve declared at any alpha_max recovers the same V
        curve = build_curve(mu, 0.5, 10.0, 2001)
        cfg = RecoveryConfig(n_grid=1001)
        v_ref = solve_fixed_point(curve, cfg).v
        for alpha_max in (1e160, 1e-100):
            rescaled = DisplacementCurve(x=curve.x, g=curve.g, alpha_max=alpha_max, kappa=0.5)
            result = solve_fixed_point(rescaled, cfg)
            assert math.isfinite(result.residual)
            assert result.residual <= 1e-13 * curve.v_max
            assert np.max(np.abs(result.v - v_ref)) <= 2e-15 * curve.v_max


class TestSolve:
    def test_round_trip_uniform_piece(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 2001)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=1001))
        truth = v_w_samples(UNIFORM_PIECE, 0.5, result.grid)
        assert np.max(np.abs(result.v - truth)) <= 1e-6 * curve.v_max
        assert result.iterations == 1
        assert result.contraction_q == pytest.approx(1.0 / 3.0)

    def test_residual_bound(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=501))
        assert result.residual <= 1e-13 * curve.v_max
        assert result.error_bound == result.residual / (1.0 - result.contraction_q)

    def test_result_stores_only_what_the_run_produced(self):
        # q and the error bound derive from kappa and residual, and the
        # density window is the config's
        names = [f.name for f in dataclasses.fields(RecoveryResult)]
        assert names == [
            "grid", "v", "kappa", "residual", "phi", "phi_clip_count", "f",
            "f_clip_count", "timings", "operator_cached", "operator_doubles",
        ]

    def test_start_point_free_fixed_point(self):
        # Picard from either end of [0, v_max] reaches the discrete fixed
        # point that the single backward sweep computes directly
        mu = Measure(atoms=((4.0, 1.0), (7.5, 0.5)), pieces=((3.0, 9.0, 1.0),))
        for kappa in (0.5, 0.1):
            curve = build_curve(mu, kappa, 10.0, 801)
            marched = solve_fixed_point(curve, RecoveryConfig(n_grid=301)).v
            for v0 in (0.0, curve.v_max):
                oracle = picard(curve, 301, v0)
                assert np.max(np.abs(marched - oracle)) <= 1e-11 * curve.v_max

    def test_small_kappa_recovery(self):
        # the regime where plain iteration needs thousands of sweeps, down
        # to the smallest kappa check_kappa admits; h is formed without a
        # rounded 1 - kappa^2, which at kappa 1.1e-6 took the error to
        # 1.3e-5 v_max
        for kappa in (1e-6, 1.1e-6, 0.005, 0.02):
            curve = build_curve(UNIFORM_PIECE, kappa, 10.0, 4001)
            result = recover(curve, RecoveryConfig(n_grid=2001))
            truth = v_w_samples(UNIFORM_PIECE, kappa, result.grid)
            assert np.max(np.abs(result.v - truth)) <= 6e-6 * curve.v_max

    def test_deterministic(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        cfg = RecoveryConfig(n_grid=501, alpha_min=3.5)
        r1 = recover(curve, cfg)
        r2 = recover(curve, cfg)
        assert np.array_equal(r1.v, r2.v)
        assert np.array_equal(r1.phi, r2.phi)
        assert np.array_equal(r1.f, r2.f, equal_nan=True)
        assert r1.residual == r2.residual

    def test_monotone_recovered_profile(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 1001)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=501))
        assert np.all(np.diff(result.v) >= -1e-12 * curve.v_max)


@st.composite
def atoms_on_nodes(draw):
    """(kappa, n_grid, measure): 1-5 atoms, each L a node of the grid
    linspace(0, 10, n_grid) from a tenth of it up to alpha_max."""
    kappa = draw(st.sampled_from([1e-6, 0.005, 0.5, 0.999]))
    n = draw(st.sampled_from([201, 2001]))
    grid = np.linspace(0.0, 10.0, n)
    nodes = draw(st.lists(st.integers(n // 10, n - 1), min_size=1, max_size=5, unique=True))
    S = draw(st.lists(st.floats(0.5, 2.0), min_size=len(nodes), max_size=len(nodes)))
    return kappa, n, Measure(atoms=tuple(zip(grid[nodes].tolist(), S)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(atoms_on_nodes())
def test_atoms_on_nodes_recover_exactly(case):
    # between atoms V is linear in alpha^2, as the hats are, so with every
    # node's total volume a knot of G (n_samples - 1 a multiple of
    # n_grid - 1) the discrete V is exact up to rounding, amplified by the
    # solve's conditioning, about 1 / kappa; over 300 draws, measured up
    # to 0.07 of this bound (6.8e-15 v_max at kappa 0.999, n = 201), and
    # 5.3e-11 v_max at kappa 1e-6
    kappa, n, mu = case
    curve = build_curve(mu, kappa, 10.0, 10 * (n - 1) + 1)
    result = solve_fixed_point(curve, RecoveryConfig(n_grid=n))
    truth = v_w_samples(mu, kappa, result.grid)
    assert np.max(np.abs(result.v - truth)) <= 1e-13 / kappa * curve.v_max


# Curves whose G has flat plateaus, unit-slope segments or a single
# segment, and one from the forward model: (x, g) on alpha_max = 10.
SWEEP_CURVES = {
    "plateaus": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                 [0.0, 0.0, 0.6, 0.6, 1.0, 1.0, 1.0]),
    "unit-slope": ([0.0, 0.5, 1.0, 2.0, 3.5, 4.0],
                   [0.0, 0.0, 0.5, 1.5, 1.7, 2.2]),
    "two-samples": ([0.0, 3.0], [0.0, 1.2]),
    "forward": None,
}


def sweep_curve(name, kappa):
    if SWEEP_CURVES[name] is None:
        mu = Measure(atoms=((4.0, 1.0), (7.5, 0.5)), pieces=((3.0, 9.0, 1.0),))
        return build_curve(mu, kappa, 10.0, 801)
    x, g = SWEEP_CURVES[name]
    return DisplacementCurve(x=np.array(x), g=np.array(g), alpha_max=10.0, kappa=kappa)


class TestSweep:
    """The segment-walking, row-blocked sweep against the searchsorted oracle."""

    N = 301     # not a multiple of 3 or of the default block

    @pytest.fixture(params=[1, 3, None], ids=["rows-1", "rows-3", "rows-default"])
    def block_rows(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(inverse, "_SWEEP_ROWS", request.param)
        rows = inverse._SWEEP_ROWS
        assert rows == 1 or self.N % rows != 0
        return rows

    @pytest.mark.parametrize("kappa", [0.005, 0.1, 0.5, 0.999])
    @pytest.mark.parametrize("name", list(SWEEP_CURVES))
    def test_matches_the_searchsorted_sweep(self, block_rows, name, kappa):
        curve = sweep_curve(name, kappa)
        x, g = curve.x, curve.g
        op = _unit_t_matrix(self.N, kappa)
        M = dense_operator(op)
        grid = np.linspace(0.0, curve.alpha_max, self.N)
        h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
        v = solve_fixed_point(curve, RecoveryConfig(n_grid=self.N)).v
        assert np.max(np.abs(v - searchsorted_sweep(M, h, x, g))) <= 1e-14 * curve.v_max

        # an h rising from -v_max/2 to above 3 v_max/2 puts b below the first
        # knot in the bottom rows and at or above the last knot in the top
        # rows; its wiggle makes the walk step up as well as down
        ramp = np.linspace(0.0, 1.0, self.N)
        h = (2.0 * ramp - 0.5 + 0.3 * np.sin(40.0 * ramp)) * curve.v_max
        oracle = searchsorted_sweep(M, h, x, g)
        v = op.sweep(h, x, g)
        assert np.max(np.abs(v - oracle)) <= 1e-14 * curve.v_max
        d = np.diagonal(M)
        b = h + M @ oracle - d * oracle
        assert np.any(b < x[0] - d * g[0])
        assert np.any(b >= x[-1] - d * g[-1])


# (grid, v) pairs that the readoff stages refuse: the stencils take one
# spacing from a uniform grid that starts at 0, and divide by alpha.
_GRID = np.linspace(0.0, 1.0, 11)
_CUBIC = _GRID**3
BAD_READOFF = {
    "nan-v": (_GRID, np.where(_GRID == _GRID[4], math.nan, _CUBIC)),
    "inf-v": (_GRID, np.where(_GRID == _GRID[4], math.inf, _CUBIC)),
    "nan-grid": (np.where(_GRID == _GRID[4], math.nan, _GRID), _CUBIC),
    "grid-to-inf": (np.append(_GRID[:-1], math.inf), _CUBIC),
    "2-d-v": (_GRID, np.stack([_CUBIC, _CUBIC])),
    "lengths": (_GRID, _CUBIC[:-1]),
    "two-nodes": (_GRID[[0, -1]], _CUBIC[[0, -1]]),
    "uneven": (_GRID**2, _CUBIC**2),
    "not-from-0": (_GRID + 0.1, _CUBIC),
    "grid-ends-at-0": (np.zeros(11), _CUBIC),
}


class TestRecoverCdf:
    def test_symbolic_cubic(self):
        # V = (1+kappa)/kappa * alpha^3/3 comes from density f(y) = y: Phi = alpha
        kappa = 0.5
        grid = np.linspace(0, 1, 501)
        v = (1 + kappa) / kappa * grid**3 / 3
        phi, clips = recover_cdf(grid, v, kappa)
        idx = np.searchsorted(grid, 0.5)
        assert phi[idx] == pytest.approx(0.5, abs=1e-5)
        # the 1/alpha factor amplifies the O(h^2) stencil error near 0, so
        # check the bulk away from the first few cells
        bulk = grid >= 0.1
        assert np.max(np.abs(phi[bulk] - grid[bulk])) <= 2e-5
        assert clips == 0

    def test_zero_profile(self):
        grid = np.linspace(0, 1, 101)
        phi, _ = recover_cdf(grid, np.zeros(101), 0.5)
        assert np.all(phi == 0.0)

    def test_atom_jump_location(self):
        mu = Measure(atoms=((1.0, 1.0),))
        curve = build_curve(mu, 0.5, 2.0, 4001)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=1001))
        phi, _ = recover_cdf(result.grid, result.v, 0.5)
        spacing = result.grid[1] - result.grid[0]
        # jump of size S/L = 1 located within 2 cells of the atom
        below = result.grid <= 1.0 - 2 * spacing
        above = result.grid >= 1.0 + 2 * spacing
        assert np.max(np.abs(phi[below])) <= 0.05
        assert np.max(np.abs(phi[above] - 1.0)) <= 0.05

    def test_nondecreasing_output(self):
        rng = np.random.default_rng(31)
        grid = np.linspace(0, 1, 201)
        noisy = np.cumsum(rng.uniform(0, 1e-3, 201)) + rng.normal(0, 1e-6, 201)
        phi, clips = recover_cdf(grid, noisy, 0.5)
        assert np.all(np.diff(phi) >= 0)
        assert clips >= 0

    def test_grid_rounded_otherwise_is_accepted(self):
        # a running sum of the step differs from linspace in the last bits
        grid = np.cumsum(np.full(501, 0.002)) - 0.002
        even = np.linspace(0.0, grid[-1], 501)
        assert not np.array_equal(grid, even)
        phi, _ = recover_cdf(grid, grid**3, 0.5)
        want, _ = recover_cdf(even, even**3, 0.5)
        np.testing.assert_allclose(phi, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", list(BAD_READOFF))
    def test_bad_samples_rejected(self, name):
        grid, v = BAD_READOFF[name]
        with pytest.raises(ArgumentError):
            recover_cdf(grid, v, 0.5)


class TestRecoverDensity:
    def test_symbolic_cubic(self):
        kappa = 0.5
        grid = np.linspace(0, 1, 501)
        v = (1 + kappa) / kappa * grid**3 / 3
        f, clips = recover_density(grid, v, kappa, alpha_min=0.1)
        window = ~np.isnan(f)
        assert np.max(np.abs(f[window] - grid[window])) <= 1e-4
        assert clips == 0

    def test_constant_profile_gives_zero_density(self):
        grid = np.linspace(0, 1, 201)
        f, _ = recover_density(grid, np.full(201, 2.0), 0.5, alpha_min=0.1)
        window = ~np.isnan(f)
        assert np.max(np.abs(f[window])) <= 1e-12

    def test_alpha_min_zero_rejected(self):
        grid = np.linspace(0, 1, 101)
        with pytest.raises(ArgumentError):
            recover_density(grid, grid**2, 0.5, alpha_min=0.0)

    @pytest.mark.parametrize("bad", [None, "0.1", True, np.True_])
    def test_alpha_min_must_be_a_number(self, bad):
        # RecoveryConfig's check: no TypeError from the comparison, and a
        # bool is not a number here
        grid = np.linspace(0, 1, 101)
        with pytest.raises(ArgumentError, match="alpha_min must be a number"):
            recover_density(grid, grid**2, 0.5, bad)

    def test_paper_literal_prefactor_ratio(self):
        # As printed, the density formula carries the prefactor (1+kappa)/kappa
        # instead of kappa/(1+kappa).  Evaluated here, it scales the recovered
        # density by ((1+kappa)/kappa)^2 and misses the measure of the curve.
        kappa, alpha_max, n = 0.5, 10.0, 501
        grid = np.linspace(0.0, alpha_max, n)
        truth = v_w_samples(UNIFORM_PIECE, kappa, grid)
        spacing = grid[1] - grid[0]
        f, _ = recover_density(grid, truth, kappa, alpha_min=3.5)
        w = np.gradient(truth, spacing, edge_order=2)[1:] / grid[1:]
        f_literal = (1 + kappa) / kappa * grid[1:] * np.gradient(w, spacing, edge_order=2)
        window = ~np.isnan(f[1:]) & (grid[1:] <= 8.5)
        assert np.max(np.abs(f[1:][window] - 1.0)) <= 1e-6
        assert np.allclose(f_literal[window] / f[1:][window], ((1 + kappa) / kappa) ** 2, rtol=1e-10)
        assert np.min(np.abs(f_literal[window] - 1.0)) >= 7.0   # ((1+kappa)/kappa)^2 = 9

    def test_window_masks_boundaries(self):
        grid = np.linspace(0, 1, 101)
        f, _ = recover_density(grid, grid**3, 0.5, alpha_min=0.3)
        spacing = grid[1] - grid[0]
        assert np.all(np.isnan(f[grid < 0.3]))
        assert np.all(np.isnan(f[grid > 1.0 - 2 * spacing + 1e-12]))

    # a grid ending at 0 puts alpha_max below alpha_min, rejected before
    @pytest.mark.parametrize("name", [n for n in BAD_READOFF if n != "grid-ends-at-0"])
    def test_bad_samples_rejected(self, name):
        grid, v = BAD_READOFF[name]
        with pytest.raises(ArgumentError):
            recover_density(grid, v, 0.5, alpha_min=0.3)


def test_paper_literal_slope_fails_the_round_trip():
    # As printed, the paper's endpoint slope V_w' = 2 V_w + (1+kappa)/kappa V_o
    # lacks the division by alpha_max.  Fed to h, it makes the solve miss the
    # V_w that the corrected slope recovers.
    kappa, alpha_max, n = 0.5, 10.0, 501
    curve = build_curve(UNIFORM_PIECE, kappa, alpha_max, 2001)
    grid = np.linspace(0.0, alpha_max, n)
    truth = v_w_samples(UNIFORM_PIECE, kappa, grid)

    v = solve_fixed_point(curve, RecoveryConfig(n_grid=n)).v
    assert np.max(np.abs(v - truth)) <= 1e-5 * curve.v_max
    vw_max, vwp_max = curve_readoff(curve)
    h_literal = h_of_alpha(vw_max, vwp_max * alpha_max, kappa, alpha_max, grid)
    v_literal = picard(curve, n, 0.0, h=h_literal)
    assert np.max(np.abs(v_literal - truth)) >= 0.5 * curve.v_max


class TestRecoverPipeline:
    def test_full_pipeline_fields(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 1001)
        result = recover(curve, RecoveryConfig(n_grid=501, alpha_min=3.5))
        assert result.phi is not None and result.phi_clip_count is not None
        assert result.f is not None and result.f_clip_count is not None
        assert np.all(np.diff(result.phi) >= 0)

    def test_density_skipped_without_alpha_min(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        result = recover(curve, RecoveryConfig(n_grid=301))
        assert result.phi is not None
        assert result.f is None

    @pytest.mark.parametrize("n_grid, alpha_min", [(3, 1.0), (4, 5.0)])
    def test_empty_density_window(self, n_grid, alpha_min):
        # [alpha_min, alpha_max - 2h] holds no node; at n_grid 3 the
        # stencils would have too few nodes to run
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        result = recover(curve, RecoveryConfig(n_grid, alpha_min))
        assert np.all(np.isnan(result.f)) and result.f_clip_count == 0

    def test_stage_timings(self):
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        cfg = RecoveryConfig(n_grid=303, alpha_min=3.5)
        inverse._OPERATOR.clear()
        cold = recover(curve, cfg)
        warm = recover(curve, cfg)
        assert (cold.operator_cached, warm.operator_cached) == (False, True)
        for result in (cold, warm):
            assert set(result.timings) == {"assembly", "solve", "cdf", "density"}
            assert all(t >= 0 for t in result.timings.values())
        assert np.array_equal(cold.v, warm.v)

    def test_one_operator_fetch(self, monkeypatch):
        # the solve looks the operator up itself; recover adds no fetch
        calls = []
        fetch = inverse._unit_t_matrix

        def spy(n, kappa):
            calls.append((n, kappa))
            return fetch(n, kappa)

        monkeypatch.setattr(inverse, "_unit_t_matrix", spy)
        inverse._OPERATOR.clear()
        curve = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        result = recover(curve, RecoveryConfig(n_grid=305, alpha_min=3.5))
        assert calls == [(305, 0.5)]
        assert result.operator_cached is False

    @pytest.mark.parametrize(
        "alpha_max, alpha_min",
        [(1e-160, 0.0), (6.5e-154, 0.35 * 6.5e-154)],
        ids=["phi", "density"],
    )
    def test_overflow_past_the_doubles(self, alpha_max, alpha_min):
        # Phi and f scale as v_max / alpha_max^2.  On a piece over [5, 9)
        # of the [0, 10] window f peaks near 100 / alpha_max^2 and Phi near
        # 59 / alpha_max^2, so at 6.5e-154 Phi is finite and f is not
        built = build_curve(Measure(pieces=((5.0, 9.0, 1.0),)), 0.5, 10.0, 801)
        curve = DisplacementCurve(x=built.x, g=built.g, alpha_max=alpha_max, kappa=0.5)
        if alpha_min > 0:
            phi = recover(curve, RecoveryConfig(n_grid=301)).phi
            assert np.all(np.isfinite(phi))
        with pytest.raises(ArgumentError, match="overflows a double"):
            recover(curve, RecoveryConfig(n_grid=301, alpha_min=alpha_min))

    def test_density_just_inside_the_doubles(self):
        # at alpha_max 1e-152, f peaks near 1e306 and Phi near 6e305:
        # np.gradient's one-sided ends in units of u = alpha / alpha_max
        # would multiply Phi by 2 / du = 600 before differencing, and
        # overflow where f does not
        built = build_curve(Measure(pieces=((5.0, 9.0, 1.0),)), 0.5, 10.0, 801)
        curve = DisplacementCurve(x=built.x, g=built.g, alpha_max=1e-152, kappa=0.5)
        f = recover(curve, RecoveryConfig(n_grid=301, alpha_min=0.35e-152)).f
        window = ~np.isnan(f)
        assert window.sum() > 100 and np.all(np.isfinite(f[window]))
        assert 1e305 < np.max(f[window]) < 1e307

    def test_underflow_is_rejected_before_the_operator(self, monkeypatch):
        # v_max / alpha_max^2 below the normal doubles at alpha_max 1e200:
        # recover refuses before it builds or sweeps the operator
        def build(n, kappa):
            raise AssertionError("the operator was built")

        monkeypatch.setattr(inverse, "_unit_t_matrix", build)
        built = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        curve = DisplacementCurve(x=built.x, g=built.g, alpha_max=1e200, kappa=0.5)
        with pytest.raises(ArgumentError, match="underflow a double"):
            recover(curve, RecoveryConfig(n_grid=301))

    def test_density_scales_as_one_over_alpha_max_squared(self):
        # scaling the alpha axis by s scales f by 1 / s^2; in units of alpha
        # the stencils overflowed at 1e-120, where f is near 1e242
        built = build_curve(UNIFORM_PIECE, 0.5, 10.0, 801)
        v = recover(built, RecoveryConfig(n_grid=301)).v
        f = {
            alpha_max: recover_density(
                np.linspace(0.0, alpha_max, 301), v, 0.5, 0.351 * alpha_max
            )[0]
            for alpha_max in (10.0, 1e-120)
        }
        want = f[10.0] * (10.0 / 1e-120) ** 2
        window = np.isfinite(want)
        assert np.array_equal(np.isfinite(f[1e-120]), window) and window.sum() > 100
        # past the piece V is exactly linear in alpha^2 and f exactly 0, so
        # there f is the stencil's rounding: V's, a few ulps of v_max, through
        # two difference quotients that each gain a factor n - 1; measured
        # up to a quarter of this floor, and 1e-12 of f's largest
        floor = 8 * 300**2 * np.finfo(float).eps * np.max(v) * 0.5 / 1.5 / 1e-120**2
        above = window & (np.abs(want) > floor)
        below = window & ~above
        assert above.sum() > 100 and np.all(np.abs(want[above]) > 100 * floor)
        np.testing.assert_allclose(f[1e-120][above], want[above], rtol=1e-12)
        assert np.all(np.abs(f[1e-120][below]) <= floor)
        # the pipeline keeps it: the solve itself moves V by a few ulps
        tiny = DisplacementCurve(x=built.x, g=built.g, alpha_max=1e-120, kappa=0.5)
        got = recover(tiny, RecoveryConfig(n_grid=301, alpha_min=0.351e-120)).f
        np.testing.assert_allclose(got[above], want[above], rtol=1e-9)
        assert np.all(np.abs(got[below]) <= floor)


class TestRecoveryConfig:
    def test_defaults(self):
        cfg = RecoveryConfig()
        assert cfg.n_grid == 1001
        assert cfg.alpha_min == 0.0
        # an exact solve leaves no approximation knobs
        names = [f.name for f in dataclasses.fields(RecoveryConfig)]
        assert names == ["n_grid", "alpha_min"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_grid": 2},
            {"n_grid": 100.5},
            {"n_grid": "101"},
            {"alpha_min": -1.0},
            {"alpha_min": math.nan},
            {"alpha_min": None},
            {"alpha_min": "1"},
            {"n_grid": 101.0},
            {"n_grid": 2**26 + 1},    # node indices past exact squares
            {"alpha_min": True},      # bool is an int to Python, not a number here
            {"alpha_min": np.True_},
            {"n_grid": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ArgumentError):
            RecoveryConfig(**kwargs)


if __name__ == "__main__":
    for name, table in (("FAR_HAT", far_hat_table()), ("FAR_COLUMN", far_column_table()),
                        ("CELLS", cell_table())):
        print(f"{name} = [")
        for row in table:
            print(f"    {row!r},")
        print("]")
