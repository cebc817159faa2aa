"""Command-line interface: forward | invert | tubes | stability | mc | ambiguity.

Data contracts:
  * CSV artifacts carry a header row and shortest round-trip float
    formatting, so identical configs reproduce byte-identical files.
  * diagnostics and experiment reports are strict JSON (NaN and inf
    written as null); errors are emitted as a JSON object on stderr.
  * exit codes: 0 success, 2 invalid input (config, flags or curve CSV,
    or sizes too large to allocate), 4 internal-consistency failure.
  * config values reach the API as the JSON holds them, and the API's
    rules check them (measures.check_number and its kin): a number given
    as a JSON string, or a count given as a float, exits 2 with the API's
    message.  Only the structure of a config is checked here: a missing
    key or an entry that is not an object is a malformed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import analysis, forward, inverse, tubes
from .errors import ArgumentError, InternalConsistencyError
from .measures import Measure, check_count, check_number

# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "nan" if math.isnan(v) else repr(v)


def _write_csv(dest, header, columns):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in zip(*columns))
    text = "\n".join(lines) + "\n"
    if dest is None:
        sys.stdout.write(text)
        return "stdout"
    with open(dest, "w") as fh:
        fh.write(text)
    return dest


def _load_json(path):
    """The JSON object of a UTF-8 config file, with or without a byte-order
    mark; ArgumentError otherwise."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # also an integer past Python's 4300 digits
        raise ArgumentError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ArgumentError(f"{path}: config must be a JSON object")
    return config


def _atoms(items):
    """(L, S) pairs from a JSON list of {"L", "S"} objects, as the JSON
    holds them: Measure checks each value."""
    return tuple((d["L"], d["S"]) for d in items)


def _measure_from_config(config):
    if "measure" in config:
        block = config["measure"]
    elif "atoms" in config or "pieces" in config:
        block = config
    else:
        raise ArgumentError("config carries no measure block")
    if not isinstance(block, dict):
        raise ArgumentError("measure block must be a JSON object")
    try:
        atoms = _atoms(block.get("atoms", []))
        pieces = tuple((d["a"], d["b"], d["rho"]) for d in block.get("pieces", []))
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"malformed measure config: {exc}") from exc
    return Measure(atoms=atoms, pieces=pieces)


def _required(config, key, flag_value):
    """Numeric option: command-line flag wins over the config file.  The
    value goes to the API as it is, and the API checks it."""
    if flag_value is None and key not in config:
        raise ArgumentError(f"missing required option {key!r}")
    return config[key] if flag_value is None else flag_value


def read_curve_csv(path, kappa, alpha_max):
    """Load a displacement curve from CSV columns (total, water | Vw).

    The file must be UTF-8 text; a leading byte-order mark is dropped.
    Blank lines are dropped and the columns found by name in the header;
    np.loadtxt parses the rows, so a '#' in a row or a literal only Python
    reads (1_000) is a malformed row.  Re-validates every curve invariant on
    ingestion; a curve that breaks one is bad input (ArgumentError), not a
    broken internal invariant.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 3:
        raise ArgumentError(f"{path}: curve CSV needs a header and >= 2 rows")
    header = [h.strip() for h in lines[0].split(",")]
    if "total" not in header:
        raise ArgumentError(f"{path}: no 'total' column")
    water = next((name for name in ("water", "Vw") if name in header), None)
    if water is None:
        raise ArgumentError(f"{path}: no 'water' (or 'Vw') column")
    cols = (header.index("total"), header.index(water))
    try:
        x, g = np.loadtxt(
            lines[1:], delimiter=",", comments=None, usecols=cols, ndmin=2
        ).T.copy()
    except ValueError as exc:
        raise ArgumentError(f"{path}: malformed CSV row: {exc}") from exc
    try:
        return forward.DisplacementCurve(x=x, g=g, alpha_max=alpha_max, kappa=kappa)
    except InternalConsistencyError as exc:
        raise ArgumentError(f"{path}: invalid curve: {exc}") from exc


def _summary(text):
    print(text, file=sys.stderr)


def _emit_json(payload, path=None):
    """Write payload as strict JSON: a NaN or infinite value becomes null."""
    payload = {
        k: None if isinstance(v, float) and not math.isfinite(v) else v
        for k, v in payload.items()
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_forward(args):
    config = _load_json(args.config)
    mu = _measure_from_config(config)
    kappa = _required(config, "kappa", args.kappa)
    alpha_max = _required(config, "alpha_max", args.alpha_max)
    n_samples = _required(config, "n_samples", args.n_samples)

    curve = forward.build_curve(mu, kappa, alpha_max, n_samples)
    alphas = np.linspace(0.0, alpha_max, n_samples)
    vw = curve.g
    vo = curve.x - curve.g
    wc = np.full(n_samples, math.nan)
    wc[1:] = forward.water_cut_samples(mu, kappa, alphas[1:])
    dest = _write_csv(
        args.out, ["alpha", "Vw", "Vo", "total", "water_cut"],
        [alphas, vw, vo, curve.x, wc],
    )
    _summary(f"forward: {n_samples} samples, v_max={curve.v_max:.8g}, wrote {dest}")
    return 0


def _cmd_invert(args):
    curve = read_curve_csv(args.curve, args.kappa, args.alpha_max)
    result = inverse.recover(curve, inverse.RecoveryConfig(args.n_grid, args.alpha_min))

    f = result.f if result.f is not None else np.full_like(result.v, math.nan)
    dest = _write_csv(
        args.out, ["alpha", "V", "Phi", "f"], [result.grid, result.v, result.phi, f]
    )
    diagnostics = {
        "residual": result.residual,
        "clip_count": result.phi_clip_count,
        "f_clip_count": result.f_clip_count,
        "error_bound": result.error_bound,
        "contraction_q": result.contraction_q,
        "timings_s": result.timings,
        "operator_cached": result.operator_cached,
        "operator_doubles": result.operator_doubles,
    }
    if args.diagnostics:
        _emit_json(diagnostics, args.diagnostics)
    _summary(
        f"invert: solved (residual {result.residual:.3e}, "
        f"error bound {result.error_bound:.3e}), wrote {dest}"
    )
    return 0


def _cmd_tubes(args):
    config = _load_json(args.config)
    try:
        tube_rows = _atoms(config["tubes"])
        pump_rows = config["pump"]["breakpoints"], config["pump"]["c"]
        kappa, t_max, n_steps = config["kappa"], config["t_max"], config["n_steps"]
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"malformed tubes config: {exc}") from exc
    system, pump = tubes.TubeSystem(tube_rows), tubes.PumpHistory(*pump_rows)
    t_max = check_number("t_max", t_max)
    check_count("n_steps", n_steps, 2)
    if not 0 < t_max < math.inf:
        raise ArgumentError("need a finite t_max > 0")

    t_grid = np.linspace(0.0, t_max, n_steps)
    result = tubes.simulate(system, kappa, pump, t_grid)
    header = ["t", "F", "Vw", "Vo"] + [f"l_{j + 1}" for j in range(system.n_tubes)]
    cols = [result.times, result.pumped, result.v_w, result.v_o]
    cols.extend(result.interfaces[:, j] for j in range(system.n_tubes))
    dest = _write_csv(args.out, header, cols)
    bt = ", ".join(f"{t:.6g}" for t in result.breakthrough_times)
    _summary(f"tubes: {system.n_tubes} tubes, breakthroughs at [{bt}], wrote {dest}")
    return 0


def _cmd_stability(args):
    if args.curve1 or args.curve2:
        if not (args.curve1 and args.curve2):
            raise ArgumentError("curve mode needs both --curve1 and --curve2")
        if args.kappa is None or args.alpha_max is None:
            raise ArgumentError("curve mode needs --kappa and --alpha-max")
        curve1 = read_curve_csv(args.curve1, args.kappa, args.alpha_max)
        curve2 = read_curve_csv(args.curve2, args.kappa, args.alpha_max)
    else:
        if not args.config:
            raise ArgumentError("need a config file or --curve1/--curve2")
        config = _load_json(args.config)
        mu = _measure_from_config(config)
        kappa = _required(config, "kappa", args.kappa)
        alpha_max = _required(config, "alpha_max", args.alpha_max)
        curve1 = forward.build_curve(mu, kappa, alpha_max, config.get("n_samples", 2001))
        curve2 = analysis.sinusoidal_perturbation(
            curve1, args.delta0_rel * curve1.v_max
        )
    cfg = inverse.RecoveryConfig(n_grid=args.n_grid)
    report = analysis.stability_experiment(curve1, curve2, cfg)
    _emit_json(dataclasses.asdict(report), args.out)
    _summary(
        f"stability: delta={report.delta:.6g} v_diff={report.v_diff:.6g} "
        f"bound={report.bound:.6g}"
    )
    return 0


def _cmd_mc(args):
    records = analysis.run_mc(
        n_trials=args.trials,
        seed=args.seed,
        kappa=args.kappa,
        alpha_max=args.alpha_max,
        n_grid=args.n_grid,
    )
    # one column per SensitivityRecord field, in field order
    cols = zip(*map(dataclasses.astuple, records))
    dest = _write_csv(
        args.out, ["seed", "n1", "n2", "v1max", "v2max", "accepted", "c"], cols
    )
    summary = analysis.summarize_mc(records)
    _emit_json(summary, args.summary)
    _summary(
        f"mc: {summary['accepted']}/{summary['trials']} accepted, "
        f"c_max={summary['c_max']:.6g}, wrote {dest}"
    )
    return 0


def _cmd_ambiguity(args):
    pair = analysis.ambiguity_pair(args.alpha0, args.k)
    probe = args.probe if args.probe is not None else args.alpha0
    gap = analysis.curve_gap(pair, args.kappa, probe, args.n_grid)
    estimate = analysis.ambiguity_series_estimate(pair, args.kappa, probe)
    _emit_json(
        {
            "alpha0": args.alpha0,
            "k": args.k,
            "kappa": args.kappa,
            "probe": probe,
            "gap": gap,
            "series_estimate": estimate,
            "gap_over_estimate": gap / estimate if estimate > 0 else math.nan,
        },
        args.out,
    )
    _summary(f"ambiguity: gap={gap:.6g} series_estimate={estimate:.6g}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="tubeflood",
        description="Quasi-1D tube-bundle waterflooding: forward curves and recovery.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("forward", help="measure -> displacement curve CSV")
    p.add_argument("config", help="JSON: measure block + kappa/alpha_max/n_samples")
    p.add_argument("--kappa", type=float)
    p.add_argument("--alpha-max", type=float)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("invert", help="curve CSV -> recovered V, Phi, density")
    p.add_argument("curve", help="CSV with columns total, water (or Vw)")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--n-grid", type=int, default=1001)
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--diagnostics", help="write diagnostics JSON here")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("tubes", help="simulate a discrete tube system")
    p.add_argument("config", help="JSON: tubes, kappa, pump, t_max, n_steps")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tubes)

    p = sub.add_parser("stability", help="perturbation experiment vs the bound")
    p.add_argument("config", nargs="?", help="JSON measure config (perturbation mode)")
    p.add_argument("--curve1")
    p.add_argument("--curve2")
    p.add_argument("--kappa", type=float)
    p.add_argument("--alpha-max", type=float)
    p.add_argument("--delta0-rel", type=float, default=1e-3)
    p.add_argument("--n-grid", type=int, default=1001)
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("mc", help="seeded Monte Carlo sensitivity batch")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--alpha-max", type=float, default=10.0)
    p.add_argument("--n-grid", type=int, default=2001)
    p.add_argument("--out", default="mc_results.csv", help="CSV of per-trial records")
    p.add_argument("--summary", help="write the summary JSON here instead of stdout")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("ambiguity", help="partial-curve ambiguity pair gap")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--probe", type=float, default=None)
    p.add_argument("--n-grid", type=int, default=2001)
    p.add_argument("--out", help="write the report JSON here instead of stdout")
    p.set_defaults(func=_cmd_ambiguity)

    return parser


def _fail(code, kind, exc):
    payload = {"error": {"type": kind, "message": str(exc), "exit_code": code}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        return _fail(2, "invalid-config", exc)
    except OSError as exc:
        return _fail(2, "io-error", exc)
    except MemoryError as exc:
        return _fail(2, "out-of-memory", exc)
    except InternalConsistencyError as exc:
        return _fail(4, "internal-consistency", exc)


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
