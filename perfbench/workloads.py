"""The benchmark's four workloads: inputs, ops and per-op correctness checks.

Every input is a pure function of (workload seed, op index), so the same
seed gives the same inputs.  Values that set an op's cost (kappa on
invert_cold, the atom count on forward_bulk) follow a seeded Kronecker
sequence, u_i = frac(u_0 + i * golden), mapped onto their range: any
prefix of the ops covers the range evenly, so runs of different seeds see
the same mix.  A run makes a fixed number of ops, ``op_count(seconds)``,
from a nominal rate measured on a 2-vCPU host; it does not stop on a
clock, so its failures repeat exactly for a given seed.

An op runs untraced through the public pipeline (``recover``, ``run_mc``)
or, given a Tracer, with a span around each layer call it makes.
``check`` runs outside the timed region and returns (ok, error, counts).
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from tubeflood import analysis, cli, forward, inverse, measures, tubes
from tubeflood.errors import ConvergenceError

ALPHA_MAX = 10.0
KAPPA_RANGE = (0.005, 0.95)   # invert_cold, drawn log-uniform
WARM_KAPPA = 0.1              # invert_warm: one fluid pair across many wells
COLD_WARMUP_KAPPA = 0.97      # outside KAPPA_RANGE, so never a timed op's kappa
V_ERR_LIMIT = 1e-3            # invert op fails above this sup|V - V_true| / v_max
# Known failures of the solver as found, on this workload's curves (counts
# in perfbench/README.md).  Up to kappa ~0.022 recover can return a V more
# than 1e-3 wrong without raising (50-85% wrong below ~0.009).  Up to
# ~0.042 it can raise ConvergenceError, 200 sweeps being too few; at 0.05
# the slowest of 800 curves needs 174.  Such ops count as failed but do not
# make the run incorrect; any other failure does.
SILENT_DEFECT_KAPPA = 0.03
CONVERGENCE_DEFECT_KAPPA = 0.05
SIM_RTOL = 1e-9               # tubes.simulate vs the closed-form volumes
BULK_KAPPA = 0.5
MC_PARAMS = dict(
    kappa=0.5, alpha_max=ALPHA_MAX, n_atoms_range=(5, 50),
    l_range=(2.5, 10.0), s_range=(0.5, 2.0),
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Sizes:
    n_grid: int = 2001            # recover grid and mc sensitivity grid
    curve_samples: int = 4001     # rows of each invert op's curve CSV
    atoms: tuple = (1e3, 1e4)     # forward_bulk atom count, log-uniform
    bulk_samples: int = 2001      # build_curve / water-cut samples
    tube_steps: int = 301         # tubes.simulate time samples
    mc_warmup: int = 30           # warm-up trials in mc set-up


TINY = Sizes(n_grid=101, curve_samples=201, atoms=(10, 100), bulk_samples=101,
             tube_steps=31, mc_warmup=3)


def _kronecker(seed, salt, i):
    """Point i of a seeded low-discrepancy sequence in [0, 1)."""
    u0 = np.random.default_rng([seed, salt]).random()
    return (u0 + i * _GOLDEN) % 1.0


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


class Workload:
    ops_per_s = 1.0   # nominal ops per CPU second at full Sizes

    def op_count(self, seconds):
        return max(2, round(seconds * self.ops_per_s))


def _untraced(name):
    return nullcontext()


@contextmanager
def _spans_around(tr, module, names):
    """While open, each ``module.<attr>`` in ``names`` runs inside a span.

    The package's own code looks these functions up as module globals, so
    its calls go through the wrappers.  With no tracer nothing is replaced.
    """
    if tr is None:
        yield
        return
    saved = {attr: getattr(module, attr) for attr in names}

    def wrap(fn, label):
        def traced(*args, **kwargs):
            with tr.span(label):
                return fn(*args, **kwargs)
        return traced

    try:
        for attr, label in names.items():
            setattr(module, attr, wrap(saved[attr], label))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# invert_cold / invert_warm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvertInput:
    kappa: float
    mu: measures.Measure
    path: str
    alpha_min: float
    v_max: float


class Invert(Workload):
    """Read a curve CSV with cli.read_curve_csv, then recover at n_grid."""

    salt = 1

    def __init__(self, sizes, workdir, cold):
        self.sizes = sizes
        self.workdir = workdir
        self.cold = cold
        self.ops_per_s = 0.8 if cold else 4.0
        self._assembled = set()   # kappas whose operator this process built

    def _kappa(self, seed, i):
        if not self.cold:
            return WARM_KAPPA
        return _log_uniform(*KAPPA_RANGE, _kronecker(seed, self.salt, i))

    def _write(self, rng, kappa, name):
        """Seeded pieces-only measure, its curve written as a CSV."""
        k = int(rng.integers(1, 4))
        ends = np.sort(rng.uniform(1.0, ALPHA_MAX, 2 * k))
        mu = measures.Measure(pieces=tuple(
            (float(ends[2 * j]), float(ends[2 * j + 1]), float(rng.uniform(0.5, 2.0)))
            for j in range(k)
        ))
        curve = forward.build_curve(mu, kappa, ALPHA_MAX, self.sizes.curve_samples)
        path = f"{self.workdir}/{name}.csv"
        rows = "".join(f"{x!r},{g!r}\n" for x, g in zip(curve.x.tolist(), curve.g.tolist()))
        with open(path, "w") as fh:
            fh.write("total,water\n" + rows)
        return InvertInput(kappa, mu, path, float(ends[0]), curve.v_max)

    def make_input(self, seed, i):
        rng = np.random.default_rng([seed, self.salt, i])
        return self._write(rng, self._kappa(seed, i), "curve")

    def warm_up(self, seed):
        """One untimed op; on invert_warm it assembles the shared operator."""
        rng = np.random.default_rng([seed, self.salt, 2**32])
        kappa = COLD_WARMUP_KAPPA if self.cold else WARM_KAPPA
        inp = self._write(rng, kappa, "warmup")
        self.check(inp, self.run(inp), None)

    def run(self, inp, tr=None):
        cfg = inverse.RecoveryConfig(n_grid=self.sizes.n_grid, alpha_min=inp.alpha_min)
        if tr is None:
            curve = cli.read_curve_csv(inp.path, inp.kappa, ALPHA_MAX)
            return inverse.recover(curve, cfg)
        # recover's body, one span per layer; apply_T first builds the operator
        with tr.span("cli.read_curve_csv"):
            curve = cli.read_curve_csv(inp.path, inp.kappa, ALPHA_MAX)
        with tr.span("inverse.apply_T"):
            inverse.apply_T(np.zeros(cfg.n_grid), inp.kappa, ALPHA_MAX)
        with tr.span("inverse.solve_fixed_point"):
            result = inverse.solve_fixed_point(curve, cfg)
        with tr.span("inverse.recover_cdf"):
            result.phi, result.phi_clip_count = inverse.recover_cdf(
                result.grid, result.v, result.kappa
            )
        with tr.span("inverse.recover_density"):
            result.f, result.f_clip_count = inverse.recover_density(
                result.grid, result.v, result.kappa, cfg.alpha_min
            )
        return result

    def check(self, inp, out, exc):
        n = self.sizes.n_grid
        counts = {"apply_T_bytes": 0 if inp.kappa in self._assembled else n * n * 8}
        self._assembled.add(inp.kappa)
        if isinstance(exc, ConvergenceError) and exc.result is not None:
            out = exc.result
        if out is None:
            return False, math.inf, counts
        counts["iterations"] = out.iterations
        counts["solve_bytes"] = out.iterations * n * n * 8
        v_true = forward.v_w_samples(inp.mu, inp.kappa, out.grid)
        err = float(np.max(np.abs(out.v - v_true))) / inp.v_max
        return exc is None and err <= V_ERR_LIMIT, err, counts

    def exempt(self, inp, failure):
        return inp.kappa < SILENT_DEFECT_KAPPA or (
            failure == "ConvergenceError" and inp.kappa < CONVERGENCE_DEFECT_KAPPA
        )

    def corrupt(self, out):
        out.v = 2.0 * out.v
        return out


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

class MonteCarlo(Workload):
    """One sensitivity trial of the paper's protocol: run_mc(1, trial seed)."""

    ops_per_s = 600.0

    # names run_mc's trial looks up in the analysis module -> span names
    TRACED = {
        "random_atoms": "measures.random_atoms",
        "endpoint_data": "forward.endpoint_data",
        "sensitivity_constant": "analysis.sensitivity_constant",
    }

    def __init__(self, sizes, workdir):
        self.sizes = sizes

    def make_input(self, seed, i):
        return seed * 2**32 + i

    def warm_up(self, seed):
        for j in range(self.sizes.mc_warmup):
            trial = seed * 2**32 + 2**31 + j   # disjoint from timed trial seeds
            self.check(trial, self.run(trial), None)

    def run(self, trial, tr=None):
        with _spans_around(tr, analysis, self.TRACED):
            return analysis.run_mc(
                1, trial, n_grid=self.sizes.n_grid, jobs=1, **MC_PARAMS
            )[0]

    def check(self, trial, out, exc):
        if out is None:
            return False, math.inf, {}
        counts = {"accepted": int(out.accepted)}
        if not out.accepted:
            return True, 0.0, counts
        return math.isfinite(out.c_value) and out.c_value > 0, out.c_value, counts

    def exempt(self, trial, failure):
        return False

    def corrupt(self, out):
        return analysis.SensitivityRecord(
            seed=out.seed, n1=out.n1, n2=out.n2, v1_max=out.v1_max,
            v2_max=out.v2_max, accepted=True, c_value=math.nan,
        )


# ---------------------------------------------------------------------------
# forward_bulk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BulkInput:
    atoms: tuple
    pump: tubes.PumpHistory
    t_grid: np.ndarray


@dataclass(frozen=True)
class BulkOutput:
    curve: forward.DisplacementCurve
    water_cut: np.ndarray
    sim: tubes.TubeSimResult


class ForwardBulk(Workload):
    """One large tube bundle through build_curve, water_cut_samples and simulate."""

    salt = 3
    ops_per_s = 1.8

    def __init__(self, sizes, workdir):
        self.sizes = sizes

    def _input(self, rng, n_atoms):
        L = rng.uniform(0.5, ALPHA_MAX, n_atoms)
        S = rng.uniform(0.5, 2.0, n_atoms)
        # two-rate pump, run until every tube has broken through
        t1, c2 = rng.uniform(5.0, 20.0), rng.uniform(0.25, 1.0)
        f_end = 1.05 * (1.0 + BULK_KAPPA) / 2.0 * ALPHA_MAX**2
        t_max = t1 + max(f_end - t1, 0.0) / c2
        return BulkInput(
            atoms=tuple(zip(L.tolist(), S.tolist())),
            pump=tubes.PumpHistory((0.0, float(t1)), (1.0, float(c2))),
            t_grid=np.linspace(0.0, t_max, self.sizes.tube_steps),
        )

    def make_input(self, seed, i):
        u = _kronecker(seed, self.salt, i)
        n_atoms = int(round(_log_uniform(*self.sizes.atoms, u)))
        return self._input(np.random.default_rng([seed, self.salt, i]), n_atoms)

    def warm_up(self, seed):
        rng = np.random.default_rng([seed, self.salt, 2**32])
        inp = self._input(rng, int(self.sizes.atoms[0]))
        self.check(inp, self.run(inp), None)

    def run(self, inp, tr=None):
        span = tr.span if tr is not None else _untraced
        alphas = np.linspace(0.0, ALPHA_MAX, self.sizes.bulk_samples)
        with span("measures.Measure"):
            mu = measures.Measure(atoms=inp.atoms)
        with span("forward.build_curve"):
            curve = forward.build_curve(mu, BULK_KAPPA, ALPHA_MAX, self.sizes.bulk_samples)
        with span("forward.water_cut_samples"):
            wc = forward.water_cut_samples(mu, BULK_KAPPA, alphas)
        with span("tubes.TubeSystem"):
            system = tubes.TubeSystem(inp.atoms)
        with span("tubes.simulate"):
            sim = tubes.simulate(system, BULK_KAPPA, inp.pump, inp.t_grid)
        return BulkOutput(curve, wc, sim)

    def check(self, inp, out, exc):
        if out is None:
            return False, math.inf, {}
        counts = {
            "atom_alpha_pairs": len(inp.atoms) * self.sizes.bulk_samples,
            "cells": out.sim.interfaces.size,
        }
        mu = measures.Measure(atoms=inp.atoms)
        xi = tubes.reparam_xi(inp.pump, BULK_KAPPA, inp.t_grid)
        err = 0.0
        for got, want in (
            (out.sim.v_w, forward.v_w_samples(mu, BULK_KAPPA, xi)),
            (out.sim.v_o, forward.v_o_samples(mu, BULK_KAPPA, xi)),
        ):
            err = max(err, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
        in_range = bool(np.all((out.water_cut >= 0.0) & (out.water_cut <= 1.0)))
        return in_range and err <= SIM_RTOL, err, counts

    def exempt(self, inp, failure):
        return False

    def corrupt(self, out):
        sim = out.sim
        bad = tubes.TubeSimResult(
            times=sim.times, pumped=sim.pumped, interfaces=sim.interfaces,
            v_w=sim.v_w * (1.0 + 1e-6), v_o=sim.v_o,
            breakthrough_times=sim.breakthrough_times,
        )
        return BulkOutput(out.curve, out.water_cut, bad)


WORKLOADS = {
    "invert_cold": lambda sizes, workdir: Invert(sizes, workdir, cold=True),
    "invert_warm": lambda sizes, workdir: Invert(sizes, workdir, cold=False),
    "mc": MonteCarlo,
    "forward_bulk": ForwardBulk,
}
