"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
on every workload, that the same seed gives identical inputs (and another
seed other inputs) and the same op and failure counts, that deliberately
corrupted results are counted as
failed, that only the solver's known failures are exempt from ``correct``,
that the host probe gives every op the bursts around it, and that the
tracer's self times and allocation peaks add up.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.load_package()

from tracing import Tracer  # noqa: E402
from tubeflood import analysis  # noqa: E402
from workloads import TINY, WORKLOADS, InvertInput, MonteCarlo  # noqa: E402


def expect(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")


def run_tiny(name, trace, corrupt=False):
    args = bench.parse_args(
        ["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    )
    result, _ = bench.run(args, sizes=TINY, corrupt=corrupt, setup_samples=1)
    return result


def check_metrics(spec):
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_tiny(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace}: metrics/units differ: "
                   f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{name} trace={trace}: non-finite metric")
            expect(result["attempted"] >= 1, f"{name}: no op attempted")


def check_corruption():
    for name in WORKLOADS:
        result = run_tiny(name, 0, corrupt=True)
        expect(result["failed"] == result["attempted"],
               f"{name}: {result['failed']}/{result['attempted']} corrupted ops failed")
        expect(result["metrics"]["pass_rate"]["value"] == 0.0, f"{name}: pass_rate")
        expect(result["correct"] is False, f"{name}: corrupted run reported correct")


def check_repeat():
    for name in WORKLOADS:
        a, b = run_tiny(name, 0), run_tiny(name, 0)
        expect((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
               f"{name}: the same seed gave {a['attempted']}/{a['failed']} and "
               f"{b['attempted']}/{b['failed']} attempted/failed")


def fingerprint(inp):
    """Everything an op reads, as comparable values (file bytes for paths)."""
    if isinstance(inp, int):
        return inp
    fields = dict(vars(inp))
    if "path" in fields:
        fields["path"] = Path(fields["path"]).read_bytes()
    return repr({k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in fields.items()})


def check_inputs():
    for name, make in WORKLOADS.items():
        prints = []
        for seed in (5, 5, 6):
            with tempfile.TemporaryDirectory(dir=bench.OUT) as workdir:
                wl = make(TINY, workdir)
                prints.append([fingerprint(wl.make_input(seed, i)) for i in range(4)])
        expect(prints[0] == prints[1], f"{name}: same seed, different inputs")
        expect(all(a != b for a, b in zip(prints[0], prints[2])),
               f"{name}: another seed repeated an input")


def check_exemption():
    """Only the solver's known failures, in their kappa ranges, are exempt."""
    wl = WORKLOADS["invert_cold"](TINY, None)

    def exempt(kappa, failure):
        return wl.exempt(InvertInput(kappa, None, "", 1.0, 1.0), failure)

    expect(exempt(0.02, "check") and exempt(0.04, "ConvergenceError"),
           "a known solver failure is not exempt")
    expect(not exempt(0.04, "check") and not exempt(0.04, "ValueError")
           and not exempt(0.06, "ConvergenceError"), "an unknown failure is exempt")


def check_probe():
    """Every op gets the factor from the two bursts around it."""
    probe = bench.HostProbe()
    probe.burst()
    for cpu in (0.3, 0.1, 0.1, 0.1, 0.01):
        probe.after_op(cpu)
    probe.finish()
    times = [t for _, t in probe.bursts]
    want = [2 * probe.REF_MS * 1e-3 / (times[0] + times[1])] \
        + [2 * probe.REF_MS * 1e-3 / (times[1] + times[2])] * 3 \
        + [2 * probe.REF_MS * 1e-3 / (times[2] + times[3])]
    expect([d for d, _ in probe.bursts] == [0, 1, 4, 5], f"bursts after {probe.bursts}")
    expect(probe.op_scales() == want, "per-op probe factors")


def check_self_time():
    tracer = Tracer()
    tracer.start()
    try:
        with tracer.span("op"):
            with tracer.span("child"):
                block = bytearray(4 * 2**20)
            del block
    finally:
        tracer.stop()
    own = tracer.self_times()
    (name, start, end, _, _, peak), (_, c_start, c_end, parent, _, c_peak) = tracer.spans
    expect(parent == 0, "child span lost its parent")
    expect(abs(own[0] - ((end - start) - (c_end - c_start))) < 1e-12, "op self time")
    expect(c_peak >= 4 * 2**20 and peak >= c_peak, f"peaks {peak}, {c_peak}")


def main():
    bench.OUT.mkdir(exist_ok=True)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check_inputs()
    check_exemption()
    check_probe()
    check_self_time()
    check_metrics(spec)
    check_repeat()
    expect(all(getattr(analysis, attr).__module__.startswith("tubeflood.")
               for attr in MonteCarlo.TRACED), "traced mc left its wrappers in analysis")
    check_corruption()
    print("selftest: ok")


if __name__ == "__main__":
    main()
