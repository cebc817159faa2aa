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
    closed_tail_integral, dense_operator, operator_row, reference_t_matrix,
    reference_t_row, searchsorted_sweep
)


SQRT3_2 = math.sqrt(3.0) / 2.0

# _cells calls per build at n = 2001, as measured, by kappa
CELL_CALLS = {0.999: 11, SQRT3_2: 11, 0.5: 13, 0.1: 24, 0.02: 25, 0.005: 25}


def closed_linear_integral(alpha, alpha_max, kappa):
    """Antiderivative oracle for T applied to V(y) = y.

    In x = y/alpha with u = sqrt(x^2 - c):
        integral 1/(x (x^2-c)^{3/2}) dx  =  -(1/u + arctan(u/sqrt c)/sqrt c)/c
    """
    c = 1.0 - kappa * kappa
    sc = math.sqrt(c)

    def anti(x):
        u = math.sqrt(x * x - c)
        return -(1.0 / u + math.atan(u / sc) / sc) / c

    return kappa * c * alpha * (anti(alpha_max / alpha) - anti(1.0))


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
    """M[i, j] on the unit grid by adaptive quadrature, in x = y/alpha_i."""
    c = 1.0 - kappa * kappa
    total = 0.0
    # cells [j-1, j] (rising hat) and [j, j+1] (falling hat), in node units
    for lo, weight in ((j - 1, lambda x: i * x - (j - 1)), (j, lambda x: (j + 1) - i * x)):
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


def decimal_t_minus_arctan(t):
    """t - arctan(t) to 50 digits, for a float t > 0.

    Two halvings, arctan y = 2 arctan(y / (1 + sqrt(1 + y^2))), bring t <= 3
    below 0.33; the Taylor series of arctan then gains a digit per term.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        x = decimal.Decimal(t)          # the float's exact value
        y = x
        for _ in range(2):
            y = y / (1 + (1 + y * y).sqrt())
        y2 = y * y
        power, total, k = y, decimal.Decimal(0), 0
        while power > y * decimal.Decimal(10) ** -80:
            total += (-1) ** k * power / (2 * k + 1)
            power *= y2
            k += 1
        return x - 4 * total


def assert_matches_the_reference(n, kappa):
    """The operator's entries against the dense oracle, to 1e-11 of each
    row's largest, with the oracle's zeros where it has them."""
    M = dense_operator(_unit_t_matrix(n, kappa))
    ref = reference_t_matrix(n, kappa)
    assert np.array_equal(M == 0.0, ref == 0.0)
    assert np.all(np.tril(M, -1) == 0.0) and np.all(M[[0, -1]] == 0.0)
    row_max = ref.max(axis=1, keepdims=True)
    assert np.all(np.abs(M - ref) <= 1e-11 * row_max)


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
        # the last column, where right = i (dB - x1 dA) cancels most
        cells += [(1, 2000), (3, 2000), (410, 2000)]
        for i, j in cells:
            ref = exact_entry(n, kappa, i, j)
            assert M[i, j] == pytest.approx(ref, rel=1e-11, abs=0.0), (i, j)

    @pytest.mark.parametrize("n", [2001, 501, 51, 3])
    def test_matches_the_reference_assembly(self, n, kappa):
        assert_matches_the_reference(n, kappa)

    def test_far_entries_keep_their_digits(self, kappa):
        # each entry the far parts hold, to 1e-11 of itself from the dense
        # closed form: measured up to 4.7e-12 at n = 2001, as without the
        # cores; cores without their y^5 gave 2.4e-11 at kappa 0.999
        n = 2001
        op = _unit_t_matrix(n, kappa)
        ref = reference_t_matrix(n, kappa)
        for lo, hi, j, top, F, B, scale in op.far:
            want = ref[lo:hi, j:top]
            assert np.all(np.abs((B @ F) * scale[:, None] - want) <= 1e-11 * want)

    @pytest.mark.parametrize("n", [2001, 501])
    def test_matches_the_reference_assembly_at_the_smallest_kappa(self, n):
        # measured 3.8e-13 (n = 501) and 1.8e-12 (n = 2001) of the row maximum
        assert_matches_the_reference(n, KAPPA_MIN)

    def test_v_matches_the_reference_assembly(self, kappa):
        # V = G(h + MV) is a contraction with factor q, so entries apart by
        # up to 3.3e-12 of their row's largest (the far fields and the
        # cells' rounding) move V by up to about that much of v_max / (1 - q);
        # measured up to 5.0e-16 of it
        n = 501
        mu = Measure(atoms=((4.0, 1.0), (7.5, 0.5)), pieces=((3.0, 9.0, 1.0),))
        curve = build_curve(mu, kappa, 10.0, 2001)
        grid = np.linspace(0.0, curve.alpha_max, n)
        h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
        oracle = searchsorted_sweep(reference_t_matrix(n, kappa), h, curve.x, curve.g)
        result = solve_fixed_point(curve, RecoveryConfig(n_grid=n))
        bound = 2e-12 * curve.v_max / (1.0 - result.contraction_q)
        assert np.max(np.abs(result.v - oracle)) <= bound

    def test_t_minus_arctan_against_a_decimal_series(self):
        switch = inverse._SERIES_T
        t = np.concatenate([
            np.geomspace(1e-8, 3.0, 400),
            [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)],
        ])
        got = inverse._t_minus_arctan(t, np.empty_like(t), np.empty_like(t))
        ref = np.array([float(decimal_t_minus_arctan(x)) for x in t])
        err = np.abs(got - ref)
        series = t < switch
        assert np.any(series) and np.any(~series)
        assert np.all(err[series] <= 1e-15 * ref[series])
        assert np.all(err <= 2 * np.finfo(float).eps * t)

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
        # V(y) = y also lies in the span, so T(V) is exact at every node
        grid = np.linspace(0.0, 10.0, 1001)
        tv = apply_T(grid, kappa, 10.0)
        oracle = [closed_linear_integral(a, 10.0, kappa) for a in grid[1:]]
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
        # entries within 3.3e-12 of their row's largest (the far fields
        # and the cells' rounding) move V by up to about that much of
        # v_max / (1 - q); measured up to 1.2e-15 of it
        ref = reference_t_matrix(n, kappa)
        q = (1.0 - kappa) / (1.0 + kappa)
        for mu in OPERATOR_MEASURES:
            curve = build_curve(mu, kappa, 10.0, 2001)
            grid = np.linspace(0.0, curve.alpha_max, n)
            h = h_of_alpha(*curve_readoff(curve), kappa, curve.alpha_max, grid)
            oracle = searchsorted_sweep(ref, h, curve.x, curve.g)
            v = solve_fixed_point(curve, RecoveryConfig(n_grid=n)).v
            assert np.max(np.abs(v - oracle)) <= 2e-12 * curve.v_max / (1.0 - q)

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
        # _cells call over its cells i, ..., top - 1: its diagonal block
        # adds the scaled parts, its near columns scale the added parts
        n = 2001
        inverse._OPERATOR.clear()
        op = _unit_t_matrix(n, kappa)
        inverse._OPERATOR.clear()
        kc = kappa * (1.0 - kappa * kappa)
        for lo, hi, L in op.leaves:
            top = lo + L.shape[1]
            for i in sorted({max(lo, 1), (lo + hi) // 2, hi - 1}):
                left, right = inverse._cells(
                    np.array([float(i)]), np.arange(float(i), top), kappa, n)
                scale = kc * ((i * i) * (i * i))
                d = hi - i                     # the cells i, ..., hi - 1
                row = np.zeros(top - lo)
                row[i - lo:hi - lo] = left[:d] * scale
                row[i - lo + 1:hi - lo] += right[:d - 1] * scale
                row[hi - lo:] = (left[d:] + right[d - 1:-1]) * scale
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
        assert op.far
        s = np.array([hi - lo for lo, hi, _ in op.leaves])
        assert 0 < sum(cells) <= np.sum(s * (s + 1) // 2)

    @pytest.mark.parametrize("n", [3, 64, 65, 2001])
    def test_tree(self, n):
        for kappa in (1e-6, 0.5, 0.999):
            inverse._OPERATOR.clear()
            op = _unit_t_matrix(n, kappa)
            # the leaves tile [0, n) from the top down
            spans = [(lo, hi) for lo, hi, _ in op.leaves]
            assert spans[0][1] == n and spans[-1][0] == 0
            assert all(a[0] == b[1] for a, b in zip(spans, spans[1:]))
            assert all(hi - lo <= inverse._LEAF for lo, hi in spans)
            # each far part's first hat [j - 1, j + 1] lies past the
            # singularity of every row of its span, by the span's width
            sc = math.sqrt((1.0 - kappa) * (1.0 + kappa))
            for lo, hi, j, top, F, B, scale in op.far:
                b, w = hi - 1, hi - 1 - lo
                assert hi - lo > inverse._LEAF and j < top
                assert j - 1 >= max(b, sc * (b + w))
                assert F.shape == (measures._FAR_POINTS, top - j)
                assert B.shape == (hi - lo, measures._FAR_POINTS)
            # a far part's columns split from j on into clusters of more
            # than _FAR_POINTS columns, each at most a span wide and past
            # the column separation, then the exact columns, which would
            # not make such a cluster, and the alpha_max column
            for lo, hi, j, top, cores in inverse._tree(n, kappa)[1]:
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
            for lo, hi, L in op.leaves:
                held[lo:hi, lo:lo + L.shape[1]] += 1
            for lo, hi, j, top, *_ in op.far:
                held[lo:hi, j:top] += 1
            assert np.array_equal(np.triu(held), np.triu(np.ones_like(held)))
            stored = sum(L.size for *_, L in op.leaves)
            stored += sum(F.size for *_, F, B, scale in op.far)
            if n == 2001:
                assert stored < 0.1 * n * n
        inverse._OPERATOR.clear()

    @pytest.mark.parametrize("n", [8001, 20001])
    def test_rows_match_the_reference_on_large_grids(self, n):
        # 60 sampled rows, each within 1e-10 of its largest entry of the
        # dense closed form; measured up to 1.1e-11 at n = 8001 and
        # 3.0e-11 at 20001
        rows = sorted({1, 2, 3, 10, *np.linspace(1, n - 2, 56).astype(int).tolist()})
        for kappa in (1e-6, 0.005, 0.5, 0.999):
            inverse._OPERATOR.clear()
            op = _unit_t_matrix(n, kappa)
            for i in rows:
                ref = reference_t_row(n, kappa, i)
                got = operator_row(op, i)
                assert np.array_equal(got == 0.0, ref == 0.0), (kappa, i)
                assert np.max(np.abs(got - ref)) <= 1e-10 * ref.max(), (kappa, i)
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
        # made by far_column_table below); 18 points gave 5.2e-14, and
        # the parts without their y^5 1.3e-13 to 1.9e-11
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
    hat [y0, y0 + 2] sits exactly at the separation of inverse._tree,
    y0 = max(b, sqrt(c) (b + w)), and the value is its integral against
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

            value = (mp.quad(lambda y: (y - y0) * kernel(y), [y0, y0 + 1])
                     + mp.quad(lambda y: (y0 + 2 - y) * kernel(y), [y0 + 1, y0 + 2]))
            rows.append((kappa, t, float(value)))
    return rows


FAR_HAT = [
    # (kappa, t, value)
    (1e-06, 0.0, 3.2387083815226203e-12),
    (1e-06, 0.006819348298638814, 3.244218168632398e-12),
    (1e-06, 0.02709137914968266, 3.2611349766908055e-12),
    (1e-06, 0.06026312439675545, 3.29059377892502e-12),
    (1e-06, 0.10542974530180318, 3.334398308842675e-12),
    (1e-06, 0.16135921418712942, 3.394898637582013e-12),
    (1e-06, 0.22652592093878654, 3.474831389078217e-12),
    (1e-06, 0.2991522876735152, 3.5771202611784252e-12),
    (1e-06, 0.37725725642960045, 3.704619971851195e-12),
    (1e-06, 0.4587103272638339, 3.859769793771159e-12),
    (1e-06, 0.5412896727361661, 4.0441093817092566e-12),
    (1e-06, 0.6227427435703995, 4.257609270398027e-12),
    (1e-06, 0.7008477123264847, 4.497796605653818e-12),
    (1e-06, 0.7734740790612132, 4.7587341262704826e-12),
    (1e-06, 0.8386407858128705, 5.030053987776283e-12),
    (1e-06, 0.8945702546981967, 5.2964444443495815e-12),
    (1e-06, 0.9397368756032445, 5.538152221749693e-12),
    (1e-06, 0.9729086208503173, 5.7330204354917654e-12),
    (1e-06, 0.9931806517013612, 5.860140093320751e-12),
    (1e-06, 1.0, 5.9043644216726105e-12),
    (1e-06, 0.003409674149319407, 3.2414519942671626e-12),
    (1e-06, 0.04367725177321906, 3.2755845284118287e-12),
    (1e-06, 0.1333944797444663, 3.363754192043494e-12),
    (1e-06, 0.2628391043061509, 3.5241407969091763e-12),
    (1e-06, 0.4179837918467172, 3.779149174324453e-12),
    (1e-06, 0.5820162081532828, 4.14656396210312e-12),
    (1e-06, 0.7371608956938489, 4.623286988578439e-12),
    (1e-06, 0.8666055202555336, 5.159023656958378e-12),
    (1e-06, 0.9563227482267809, 5.633627757878145e-12),
    (1e-06, 0.9965903258506805, 5.882157797146302e-12),
    (0.5, 0.0, 6.622410991378243e-12),
    (0.5, 0.006819348298638814, 6.6336593881831e-12),
    (0.5, 0.02709137914968266, 6.668195249048072e-12),
    (0.5, 0.06026312439675545, 6.728334609494513e-12),
    (0.5, 0.10542974530180318, 6.817757750264314e-12),
    (0.5, 0.16135921418712942, 6.9412587446664205e-12),
    (0.5, 0.22652592093878654, 7.1044185447717885e-12),
    (0.5, 0.2991522876735152, 7.313196908972009e-12),
    (0.5, 0.37725725642960045, 7.57340884971701e-12),
    (0.5, 0.4587103272638339, 7.890016797831383e-12),
    (0.5, 0.5412896727361661, 8.266142405396567e-12),
    (0.5, 0.6227427435703995, 8.701701494831925e-12),
    (0.5, 0.7008477123264847, 9.191623398894878e-12),
    (0.5, 0.7734740790612132, 9.723773931057842e-12),
    (0.5, 0.8386407858128705, 1.0276993418590574e-11),
    (0.5, 0.8945702546981967, 1.0820060109169789e-11),
    (0.5, 0.9397368756032445, 1.1312722673123318e-11),
    (0.5, 0.9729086208503173, 1.1709855680298858e-11),
    (0.5, 0.9931806517013612, 1.1968892244388302e-11),
    (0.5, 1.0, 1.2059004730760886e-11),
    (0.5, 0.003409674149319407, 6.628012165946306e-12),
    (0.5, 0.04367725177321906, 6.697693803008766e-12),
    (0.5, 0.1333944797444663, 6.8776834735334575e-12),
    (0.5, 0.2628391043061509, 7.205064412756073e-12),
    (0.5, 0.4179837918467172, 7.725502284335124e-12),
    (0.5, 0.5820162081532828, 8.475167661938638e-12),
    (0.5, 0.7371608956938489, 9.447558298059741e-12),
    (0.5, 0.8666055202555336, 1.0539924966001547e-11),
    (0.5, 0.9563227482267809, 1.1507304171921062e-11),
    (0.5, 0.9965903258506805, 1.2013756341799912e-11),
    (0.999, 0.0, 3.85735541241325e-11),
    (0.999, 0.006819348298638814, 3.857390138816839e-11),
    (0.999, 0.02709137914968266, 3.857496151759035e-11),
    (0.999, 0.06026312439675545, 3.857678602289994e-11),
    (0.999, 0.10542974530180318, 3.857944950326189e-11),
    (0.999, 0.16135921418712942, 3.858303419107421e-11),
    (0.999, 0.22652592093878654, 3.858761099419455e-11),
    (0.999, 0.2991522876735152, 3.859321935213161e-11),
    (0.999, 0.37725725642960045, 3.859984841306593e-11),
    (0.999, 0.4587103272638339, 3.860742195200231e-11),
    (0.999, 0.5412896727361661, 3.8615789096309495e-11),
    (0.999, 0.6227427435703995, 3.8624722340367926e-11),
    (0.999, 0.7008477123264847, 3.863392357591347e-11),
    (0.999, 0.7734740790612132, 3.864303801578344e-11),
    (0.999, 0.8386407858128705, 3.865167503310882e-11),
    (0.999, 0.8945702546981967, 3.865943416511012e-11),
    (0.999, 0.9397368756032445, 3.866593392452843e-11),
    (0.999, 0.9729086208503173, 3.867084069219017e-11),
    (0.999, 0.9931806517013612, 3.8673894878530686e-11),
    (0.999, 1.0, 3.867493175768352e-11),
    (0.999, 0.003409674149319407, 3.857372716748042e-11),
    (0.999, 0.04367725177321906, 3.85758598372999e-11),
    (0.999, 0.1333944797444663, 3.858120221129799e-11),
    (0.999, 0.2628391043061509, 3.8590348260234026e-11),
    (0.999, 0.4179837918467172, 3.86035508727304e-11),
    (0.999, 0.5820162081532828, 3.8620171227301555e-11),
    (0.999, 0.7371608956938489, 3.863841346617944e-11),
    (0.999, 0.8666055202555336, 3.8655514581042656e-11),
    (0.999, 0.9563227482267809, 3.8668373208004994e-11),
    (0.999, 0.9965903258506805, 3.867441272173621e-11),
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
    (y + 1 - s) and (s - y) over the cell against 1 / (s^2 (s^2 - c
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
            left = mp.quad(lambda s: (y + 1 - s) * kernel(s), [y, y + 1])
            right = mp.quad(lambda s: (s - y) * kernel(s), [y, y + 1])
            rows.append((kappa, t, float(y ** 5 * left), float((y + 1) ** 5 * right)))
    return rows


FAR_COLUMN = [
    # (kappa, t, y^5 left, (y + 1)^5 right)
    (1e-06, 0.0, 0.7602885408546691, 0.7746465277633114),
    (1e-06, 0.006819348298638814, 0.7577625365344861, 0.7720381203954048),
    (1e-06, 0.02709137914968266, 0.75048343442324, 0.764519916543276),
    (1e-06, 0.06026312439675545, 0.7392686779624242, 0.7529318510038039),
    (1e-06, 0.10542974530180318, 0.7252527774998409, 0.738440544505489),
    (1e-06, 0.16135921418712942, 0.7096480849448474, 0.7222941333379004),
    (1e-06, 0.22652592093878654, 0.6935486175604647, 0.7056208001290712),
    (1e-06, 0.2991522876735152, 0.6778175958626079, 0.6893127954071473),
    (1e-06, 0.37725725642960045, 0.6630565174142834, 0.6739939808030734),
    (1e-06, 0.4587103272638339, 0.6496298162628817, 0.6600445158852617),
    (1e-06, 0.5412896727361661, 0.6377157735642708, 0.647652709622706),
    (1e-06, 0.6227427435703995, 0.6273620787986376, 0.6368718737616867),
    (1e-06, 0.7008477123264847, 0.6185343438710916, 0.6276701154002612),
    (1e-06, 0.7734740790612132, 0.6111534286581031, 0.6199687482311642),
    (1e-06, 0.8386407858128705, 0.605121757632811, 0.6136694496284554),
    (1e-06, 0.8945702546981967, 0.6003406431400534, 0.6086721944778305),
    (1e-06, 0.9397368756032445, 0.5967210175222116, 0.6048864101324479),
    (1e-06, 0.9729086208503173, 0.5941896965584795, 0.6022375211296711),
    (1e-06, 0.9931806517013612, 0.5926928058656227, 0.6006705551593405),
    (1e-06, 1.0, 0.5921975141171867, 0.6001519843517003),
    (1e-06, 0.003409674149319407, 0.7590205433434988, 0.7733372020503362),
    (1e-06, 0.04367725177321906, 0.7447722051709752, 0.758619338030745),
    (1e-06, 0.1333944797444663, 0.7172253872095313, 0.7301361837872131),
    (1e-06, 0.2628391043061509, 0.6854174180666784, 0.6971934824864238),
    (1e-06, 0.4179837918467172, 0.6561152355984631, 0.6667843967757552),
    (1e-06, 0.5820162081532828, 0.6323802938387694, 0.6420985891209731),
    (1e-06, 0.7371608956938489, 0.6147514507940307, 0.6237239100761404),
    (1e-06, 0.8666055202555336, 0.6026880504236851, 0.6111261818007041),
    (1e-06, 0.9563227482267809, 0.5954423799302013, 0.6035485301773241),
    (1e-06, 0.9965903258506805, 0.5924446476632844, 0.6004107391539395),
    (0.5, 0.0, 0.710187741762933, 0.7248514433434372),
    (0.5, 0.006819348298638814, 0.7081122587005766, 0.7226915415999446),
    (0.5, 0.02709137914968266, 0.7021323818597787, 0.7164667786353639),
    (0.5, 0.06026312439675545, 0.6929223532551744, 0.7068745867488833),
    (0.5, 0.10542974530180318, 0.6814176997498934, 0.6948835254488428),
    (0.5, 0.16135921418712942, 0.6686176289109804, 0.6815295079773236),
    (0.5, 0.22652592093878654, 0.6554229718634085, 0.6677483038418488),
    (0.5, 0.2991522876735152, 0.6425433303878241, 0.6542791193269851),
    (0.5, 0.37725725642960045, 0.630471680330129, 0.6416376871772986),
    (0.5, 0.4587103272638339, 0.6195049853679433, 0.6301369512253217),
    (0.5, 0.5412896727361661, 0.6097865295037334, 0.6199303827846006),
    (0.5, 0.6227427435703995, 0.6013520565949956, 0.6110594446841378),
    (0.5, 0.7008477123264847, 0.5941700096281481, 0.6034951304413426),
    (0.5, 0.7734740790612132, 0.5881724373036239, 0.5971699703017888),
    (0.5, 0.8386407858128705, 0.5832767296678671, 0.5920006165721133),
    (0.5, 0.8945702546981967, 0.5793998725530131, 0.5879027153461603),
    (0.5, 0.9397368756032445, 0.5764672308340181, 0.5848001178198431),
    (0.5, 0.9729086208503173, 0.5744176346859766, 0.5826302519576143),
    (0.5, 0.9931806517013612, 0.5732061312600637, 0.5813470569056803),
    (0.5, 1.0, 0.5728053556367043, 0.5809224642608952),
    (0.5, 0.003409674149319407, 0.7091458746937404, 0.7237672356971141),
    (0.5, 0.04367725177321906, 0.6974415995587104, 0.7115821304089621),
    (0.5, 0.1333944797444663, 0.674831832967802, 0.6880143999414489),
    (0.5, 0.2628391043061509, 0.6487638689821454, 0.6607866188098159),
    (0.5, 0.4179837918467172, 0.6248003975187997, 0.6356923168059746),
    (0.5, 0.5820162081532828, 0.6054386746307326, 0.6153591248868306),
    (0.5, 0.7371608956938489, 0.5910952267206393, 0.60025340773589),
    (0.5, 0.8666055202555336, 0.581302873836331, 0.5899147195370265),
    (0.5, 0.9563227482267809, 0.5754317888824559, 0.5837040737109374),
    (0.5, 0.9965903258506805, 0.573005323428018, 0.5811343219304017),
    (0.8660254037844386, 0.0, 0.587833139456843, 0.6037004497943662),
    (0.8660254037844386, 0.006819348298638814, 0.5868844353998077, 0.6026600129038757),
    (0.8660254037844386, 0.02709137914968266, 0.5841543896772475, 0.5996638701319718),
    (0.8660254037844386, 0.06026312439675545, 0.5799598961791431, 0.5950541042592858),
    (0.8660254037844386, 0.10542974530180318, 0.5747392064015712, 0.5893047810251696),
    (0.8660254037844386, 0.16135921418712942, 0.5689578026648784, 0.5829211073065104),
    (0.8660254037844386, 0.22652592093878654, 0.5630316773358919, 0.5763568498184423),
    (0.8660254037844386, 0.2991522876735152, 0.5572840775701722, 0.5699672815425347),
    (0.8660254037844386, 0.37725725642960045, 0.551934667243038, 0.5639967530272165),
    (0.8660254037844386, 0.4587103272638339, 0.5471105699618005, 0.5585898213698023),
    (0.8660254037844386, 0.5412896727361661, 0.5428674598493908, 0.5538133825625474),
    (0.8660254037844386, 0.6227427435703995, 0.5392120502577299, 0.5496805571980637),
    (0.8660254037844386, 0.7008477123264847, 0.536121376505783, 0.5461713472678322),
    (0.8660254037844386, 0.7734740790612132, 0.5335573389493968, 0.5432483482464734),
    (0.8660254037844386, 0.8386407858128705, 0.5314767064790514, 0.5408676638924335),
    (0.8660254037844386, 0.8945702546981967, 0.529837491748782, 0.5389859506599356),
    (0.8660254037844386, 0.9397368756032445, 0.5286027303306492, 0.5375646665845246),
    (0.8660254037844386, 0.9729086208503173, 0.5277425526664482, 0.53657246051376),
    (0.8660254037844386, 0.9931806517013612, 0.5272352182865918, 0.5359864121124631),
    (0.8660254037844386, 1.0, 0.5270675728789124, 0.5357926146390419),
    (0.8660254037844386, 0.003409674149319407, 0.5873568280334222, 0.6031781291254562),
    (0.8660254037844386, 0.04367725177321906, 0.5820164826306291, 0.5973153050658151),
    (0.8660254037844386, 0.1333944797444663, 0.5717608060498124, 0.5860184513535386),
    (0.8660254037844386, 0.2628391043061509, 0.5600551571617532, 0.573050920906431),
    (0.8660254037844386, 0.4179837918467172, 0.5494354401880325, 0.5611984819146668),
    (0.8660254037844386, 0.5820162081532828, 0.5409798259123629, 0.5516814468135763),
    (0.8660254037844386, 0.7371608956938489, 0.5348048593549725, 0.544671935288596),
    (0.8660254037844386, 0.8666055202555336, 0.5306411604126214, 0.5399092154249835),
    (0.8660254037844386, 0.9563227482267809, 0.5281678823758189, 0.5370632949630594),
    (0.8660254037844386, 0.9965903258506805, 0.5271512083009613, 0.5358893057637957),
    (0.999, 0.0, 0.4915443942175556, 0.5114130551884654),
    (0.999, 0.006819348298638814, 0.49158968178073303, 0.5113296701461039),
    (0.999, 0.02709137914968266, 0.4917215963267934, 0.5110887528344601),
    (0.999, 0.06026312439675545, 0.4919290568660433, 0.5107156636998826),
    (0.999, 0.10542974530180318, 0.4921958853140146, 0.5102458814457703),
    (0.999, 0.16135921418712942, 0.4925034731790469, 0.5097178049293148),
    (0.999, 0.22652592093878654, 0.49283334316482524, 0.5091667429033133),
    (0.999, 0.2991522876735152, 0.493169063964302, 0.50862133205792),
    (0.999, 0.37725725642960045, 0.4934973082416569, 0.5081023779508147),
    (0.999, 0.4587103272638339, 0.4938081348597785, 0.5076233979869602),
    (0.999, 0.5412896727361661, 0.4940947304460471, 0.5071920174026314),
    (0.999, 0.6227427435703995, 0.49435286635942843, 0.5068115735580099),
    (0.999, 0.7008477123264847, 0.49458027107575964, 0.5064825641512286),
    (0.999, 0.7734740790612132, 0.49477604096560984, 0.5062037962237856),
    (0.999, 0.8386407858128705, 0.49494014710084505, 0.5059732240589341),
    (0.999, 0.8945702546981967, 0.4950730525503419, 0.5057885235187065),
    (0.999, 0.9397368756032445, 0.4951754315580698, 0.5056474664951572),
    (0.999, 0.9729086208503173, 0.49524797285191074, 0.5055481543524772),
    (0.999, 0.9931806517013612, 0.4952912482289574, 0.5054891569472012),
    (0.999, 1.0, 0.49530563037710357, 0.5054695906211627),
    (0.999, 0.003409674149319407, 0.49156709639244134, 0.5113712115863704),
    (0.999, 0.04367725177321906, 0.49182659590449146, 0.5108990514893523),
    (0.999, 0.1333944797444663, 0.4923526820951309, 0.5099749268662919),
    (0.999, 0.2628391043061509, 0.49300514172490706, 0.5088857448984068),
    (0.999, 0.4179837918467172, 0.49365646455977963, 0.5078556437269183),
    (0.999, 0.5820162081532828, 0.49422664616970646, 0.5069966574556113),
    (0.999, 0.7371608956938489, 0.49467993830707585, 0.5063401325687776),
    (0.999, 0.8666055202555336, 0.4950074766631567, 0.5058794299470221),
    (0.999, 0.9563227482267809, 0.4952119748533781, 0.5055973717347579),
    (0.999, 0.9965903258506805, 0.49529845022175767, 0.5054793563854433),
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
        np.testing.assert_allclose(f[1e-120][window], want[window], rtol=1e-12)
        # the pipeline keeps it: the solve itself moves V by a few ulps
        tiny = DisplacementCurve(x=built.x, g=built.g, alpha_max=1e-120, kappa=0.5)
        got = recover(tiny, RecoveryConfig(n_grid=301, alpha_min=0.351e-120)).f
        np.testing.assert_allclose(got[window], want[window], rtol=1e-9)


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
    for name, table in (("FAR_HAT", far_hat_table()), ("FAR_COLUMN", far_column_table())):
        print(f"{name} = [")
        for row in table:
            print(f"    {row!r},")
        print("]")
