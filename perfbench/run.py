"""tubeflood benchmark: one workload, one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload invert_cold --seed 0 --seconds 25 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in, with BLAS pinned to one thread.  A run makes a fixed number of
ops, ``--seconds`` times the workload's nominal rate, so the same seed
gives the same ops, the same checks and the same failures on any host.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it runs half the ops untraced and half with a span around every layer
call, and reports the per-layer metrics and the tracing overhead.  Times
are process CPU time; the end-to-end ones are scaled to a reference host
speed by a probe timed between ops (see perfbench/README.md), and the
summary prints them as measured.  Each op is checked outside the timed
region.  The last stdout line is the JSON result; the lines before it
give provenance and a human-readable summary.  Spans of a traced run go
to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5   # this process plus four fresh ones

# each layer reports .self_ms (median per call) and .calls
LAYERS = (
    "cli.read_curve_csv",
    "inverse.apply_T",
    "inverse.solve_fixed_point",
    "inverse.recover_cdf",
    "inverse.recover_density",
    "measures.random_atoms",
    "forward.endpoint_data",
    "analysis.sensitivity_constant",
    "measures.Measure",
    "forward.build_curve",
    "forward.water_cut_samples",
    "tubes.TubeSystem",
    "tubes.simulate",
)
PEAK_LAYERS = ("inverse.apply_T", "forward.build_curve", "tubes.simulate")
# per-op counts from each op's inputs and result (see workloads.check), as medians
COMPUTED = {
    "inverse.apply_T.bytes_computed": ("apply_T_bytes", "bytes"),
    "inverse.solve_fixed_point.bytes_computed": ("solve_bytes", "bytes"),
    "inverse.solve_fixed_point.iterations": ("iterations", "count"),
    "forward.build_curve.atom_alpha_pairs": ("atom_alpha_pairs", "count"),
    "tubes.simulate.cells": ("cells", "count"),
}

Op = namedtuple("Op", "cpu wall ok exempt error counts failure")


def load_package():
    """Import tubeflood from this checkout's src/, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tubeflood
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tubeflood from {src}: {exc}")
    if src not in Path(tubeflood.__file__).resolve().parents:
        sys.exit(f"perfbench: tubeflood imported from outside {src}")
    return tubeflood


def provenance(tubeflood, workload, seed, trace):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": tubeflood.BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


class HostProbe:
    """A fixed computation of the benchmark's own, timed between ops.

    The host's speed drifts by tens of percent over seconds to minutes, in
    CPU time as in wall time (see README.md).  The probe bursts before the
    first op, after the last, and between ops every ``EVERY_S`` of op CPU
    time.  Each op's CPU time is scaled by ``REF_MS`` over the mean of the
    two bursts around it: CPU time as it would read at the reference speed.
    The probe runs no code of the package, and after construction it
    allocates nothing, so it leaves the allocator as the ops left it.
    """

    REF_MS = 5.0    # about its median on the 2-vCPU host of README.md at a quiet time
    EVERY_S = 0.25  # op CPU seconds between two bursts

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._mat = rng.random((1001, 1001))
        self._vec = rng.random(1001)
        self._out = np.ones(1001)
        self._arr = rng.random(2**18)
        self._tmp = np.ones(2**18)
        self.nbytes = sum(a.nbytes for a in (self._mat, self._vec, self._out,
                                             self._arr, self._tmp))
        self.bursts = []   # (ops done before it, CPU seconds)
        self._done = 0
        self._due = 0.0

    def burst(self):
        np = self._np
        c0 = time.process_time()
        for _ in range(6):
            np.matmul(self._mat, self._vec, out=self._out)
        np.negative(self._arr, out=self._tmp)
        np.exp(self._tmp, out=self._tmp)
        self._tmp.sum()
        total = 0
        for k in range(20000):
            total += k * k
        self.bursts.append((self._done, time.process_time() - c0))

    def after_op(self, cpu):
        self._done += 1
        self._due -= cpu
        if self._due <= 0.0:
            self.burst()
            self._due = self.EVERY_S

    def finish(self):
        if self.bursts[-1][0] < self._done:
            self.burst()

    def median_ms(self):
        return statistics.median(t for _, t in self.bursts) * 1e3

    def scale(self):
        """Factor from this run's CPU times to the reference speed's, over the run."""
        return self.REF_MS / self.median_ms()

    def op_scales(self):
        """Per op, the factor from the mean of the two bursts around it."""
        out = []
        for (d0, t0), (d1, t1) in zip(self.bursts, self.bursts[1:]):
            out += [self.REF_MS * 2e-3 / (t0 + t1)] * (d1 - d0)
        return out


def measure(wl, seed, count, first=0, tracer=None, corrupt=False, probe=None):
    """Closed loop over ops ``first`` .. ``first + count - 1``.

    With a probe, it bursts before, between and after ops, outside their
    timed region.
    """
    ops = []
    if probe is not None:
        probe.burst()
    for i in range(first, first + count):
        inp = wl.make_input(seed, i)
        out = exc = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = wl.run(inp)
            else:
                tracer.op_id = i
                with tracer.span("op"):
                    out = wl.run(inp, tracer)
        except Exception as e:  # an op that raises is a failed op
            exc = e
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if corrupt and out is not None:
            out = wl.corrupt(out)
        ok, error, counts = wl.check(inp, out, exc)
        failure = None if ok else (type(exc).__name__ if exc else "check")
        ops.append(Op(cpu, wall, ok, wl.exempt(inp, failure), error, counts, failure))
        if probe is not None:
            probe.after_op(cpu)
    if probe is not None:
        probe.finish()
    return ops


def tail(latencies):
    """(percentile, value, samples beyond): the highest percentile up to p99
    with at least 10 samples beyond it.

    The p99 cap keeps the tail of long runs (mc runs ~15000 ops) off the
    few ops that host jitter stalls; runs under 21 ops fall back to the
    sample just above the median.
    """
    xs = sorted(latencies)
    n = len(xs)
    beyond = max(min(10, (n - 1) // 2), n // 100)
    return 100.0 * (n - beyond) / n, xs[n - 1 - beyond], beyond


def peak_rss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def end_to_end(ops, setup_s, probe, rss_before_probe):
    """Times are CPU time at the probe's reference speed; RSS leaves out the probe."""
    cpu = [o.cpu * k for o, k in zip(ops, probe.op_scales())]
    rss = max(rss_before_probe, peak_rss() - probe.nbytes)
    return {
        "setup_s": (setup_s * probe.scale(), "s"),
        "ops_per_ref_s": (len(ops) / sum(cpu), "1/s"),
        "op_p50_ref_ms": (statistics.median(cpu) * 1e3, "ms"),
        "op_tail_ref_ms": (tail(cpu)[1] * 1e3, "ms"),
        "pass_rate": (sum(o.ok for o in ops) / len(ops), "ratio"),
        "peak_rss_mb": (rss / 2**20, "MB"),
    }


def v_err_p50(ops):
    errs = [o.error for o in ops if "iterations" in o.counts]
    return statistics.median(errs) if errs else 0.0


def per_layer(tracer, traced, untraced):
    out = {}
    for name in LAYERS:
        calls, self_ms, peak_mb = tracer.layer_stats(name)
        out[f"{name}.self_ms"] = (self_ms, "ms")
        out[f"{name}.calls"] = (calls, "count")
        if name in PEAK_LAYERS:
            out[f"{name}.peak_alloc_mb"] = (peak_mb, "MB")
    for metric, (key, unit) in COMPUTED.items():
        vals = [o.counts[key] for o in traced if key in o.counts]
        out[metric] = (statistics.median(vals) if vals else 0, unit)
    out["inverse.solve_fixed_point.failed"] = (
        sum(o.failure == "ConvergenceError" for o in traced), "count"
    )
    trials = [o.counts["accepted"] for o in traced if "accepted" in o.counts]
    out["analysis.accepted_per_trial"] = (sum(trials) / len(trials) if trials else 0.0, "ratio")
    out["inverse.recover.v_err_p50"] = (v_err_p50(traced + untraced), "ratio")
    out["bench.trace_throughput_ratio"] = (
        (len(traced) / sum(o.cpu for o in traced))
        / (len(untraced) / sum(o.cpu for o in untraced)),
        "ratio",
    )
    return out


def summarize(ops, label):
    n = len(ops)
    failed = [o for o in ops if not o.ok]
    kinds = sorted({o.failure for o in failed})
    pct, value, beyond = tail([o.cpu for o in ops])
    wall, cpu = sum(o.wall for o in ops), sum(o.cpu for o in ops)
    lines = [
        f"{label}: {n} ops, fail_rate {len(failed) / n:.4f} ({len(failed)} failed"
        + (f": {', '.join(kinds)}" if kinds else "")
        + f"; {sum(o.exempt for o in failed)} known solver defects)",
        f"{label}: the tail is p{pct:.2f}: {value * 1e3:.4f} ms of CPU "
        f"(n={n}, {beyond} samples beyond)",
        f"{label}: as measured: CPU time p50 "
        f"{statistics.median(o.cpu for o in ops) * 1e3:.4f} ms, {n / cpu:.4f} ops/s; "
        f"wall time p50 {statistics.median(o.wall for o in ops) * 1e3:.4f} ms, "
        f"{n / wall:.4f} ops/s; CPU {cpu:.3f} s of {wall:.3f} s wall",
    ]
    if any("iterations" in o.counts for o in ops):
        lines.append(f"{label}: v_err_p50 {v_err_p50(ops):.4e} (sup|V - V_true| / v_max)")
    return lines


def setup(args, sizes, workdir):
    """Import done by the caller; build the workload and warm it up."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](sizes, workdir)
    wl.warm_up(args.seed)
    return wl


def setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run(args, sizes=None, corrupt=False, setup_samples=SETUP_SAMPLES):
    """Run one workload; returns (result dict, stdout lines before it).

    Needs load_package() and this directory on sys.path first.
    """
    import tubeflood
    from tracing import Tracer
    from workloads import Sizes

    sizes = sizes or Sizes()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = setup(args, sizes, workdir)
        setup_times = [time.process_time()]
        lines = [json.dumps({"provenance": provenance(tubeflood, args.workload,
                                                      args.seed, args.trace)})]
        if not args.trace:
            setup_times += [setup_in_fresh_process(args) for _ in range(setup_samples - 1)]
            rss_before_probe = peak_rss()
            probe = HostProbe()
            ops = measure(wl, args.seed, wl.op_count(args.seconds), corrupt=corrupt,
                          probe=probe)
            metrics = end_to_end(ops, statistics.median(setup_times), probe, rss_before_probe)
            lines += summarize(ops, args.workload)
            lines.append(f"{args.workload}: setup CPU s {setup_times}")
            lines.append(f"{args.workload}: host probe median {probe.median_ms():.4f} ms "
                         f"over {len(probe.bursts)} bursts: setup_s scaled by "
                         f"{probe.scale():.4f}, each op by the two bursts around it")
        else:
            count = wl.op_count(args.seconds)
            untraced = measure(wl, args.seed, count // 2, corrupt=corrupt)
            tracer = Tracer()
            tracer.start()
            try:
                traced = measure(wl, args.seed, count - count // 2, first=len(untraced),
                                 tracer=tracer, corrupt=corrupt)
            finally:
                tracer.stop()
            ops = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            lines += summarize(untraced, f"{args.workload} untraced")
            lines += summarize(traced, f"{args.workload} traced")
            dest = OUT / f"trace-{args.workload}-{args.seed}.json"
            tracer.dump(dest, json.loads(lines[0]))
            lines.append(f"{args.workload}: {len(tracer.spans)} spans written to {dest}")
    result = {
        "correct": all(o.ok or o.exempt for o in ops),
        "attempted": len(ops),
        "failed": sum(not o.ok for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def main():
    sys.path.insert(0, str(HERE))
    load_package()
    args = parse_args()
    if args.setup_only:
        from workloads import Sizes

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            setup(args, Sizes(), workdir)
            print(time.process_time())
        return
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
