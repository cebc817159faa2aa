"""Command-line fuzzing: no traceback ever reaches the user.

Each numeric flag and config field of every subcommand is drawn from
{nan, inf, -inf, 0, -1, 1e160, 1e308, 1e-160, 1e-320, 21.7, a valid value},
and each config field also from a value of another JSON type, {null, "0.5",
true, [0.5], {}} (argparse types the flags), with small grids: every field
alone takes each bad value, and random pairs of fields take bad values
together.  Every run must exit 0 or 2, let no exception escape and fire no
RuntimeWarning (pytest turns those into errors), and a successful run must
write finite volumes.  A forward config runs if and only if the API takes
its values: the CLI passes them on as the JSON holds them.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeflood import cli, forward
from tubeflood.errors import ArgumentError
from tubeflood.measures import Measure

BAD = (math.nan, math.inf, -math.inf, 0, -1, 1e160, 1e308, 1e-160, 1e-320, 21.7)
# config values of another JSON type than a number
WRONG_TYPE = (None, "0.5", True, [0.5], {})
ABSENT = None

CURVE = forward.build_curve(Measure(pieces=((0.5, 1.5, 1.0),)), 0.5, 2.0, 101)
CURVE_CSV = "total,water\n" + "".join(
    f"{x!r},{g!r}\n" for x, g in zip(CURVE.x.tolist(), CURVE.g.tolist())
)

# per subcommand: config fields and flags with their valid values; a flag
# whose valid value is ABSENT is left out unless it is drawn
FIELDS = {
    "forward": {
        "kappa": 0.5, "alpha_max": 2.0, "n_samples": 21, "L": 1.0, "S": 1.0,
        "--kappa": ABSENT, "--alpha-max": ABSENT, "--n-samples": ABSENT,
    },
    "invert": {
        "--kappa": 0.5, "--alpha-max": 2.0, "--n-grid": 51, "--alpha-min": ABSENT,
    },
    "tubes": {
        "L": 1.0, "S": 1.0, "kappa": 0.5, "breakpoint": 1.0, "c0": 1.0, "c1": 0.5,
        "t_max": 3.0, "n_steps": 5,
    },
    "stability": {
        "kappa": 0.5, "alpha_max": 2.0, "n_samples": 101, "L": 1.0, "S": 1.0,
        "--kappa": ABSENT, "--alpha-max": ABSENT, "--delta0-rel": 1e-3,
        "--n-grid": 51,
    },
    "mc": {
        "--trials": 2, "--seed": 0, "--kappa": 0.5, "--alpha-max": 10.0, "--n-grid": 51,
    },
    "ambiguity": {
        "--alpha0": 2.0, "--k": 1.2, "--kappa": 0.5, "--probe": ABSENT, "--n-grid": 51,
    },
}

# the volumes a successful run writes, by output file and column or key
FINITE = {
    "forward": ("out.csv", ("Vw", "Vo", "total")),
    "invert": ("out.csv", ("V",)),
    "tubes": ("out.csv", ("F", "Vw", "Vo")),
    "stability": ("out.json", ("delta", "v_diff", "bound")),
    "mc": ("out.csv", ("v1max", "v2max")),
    "ambiguity": ("out.json", ("gap",)),
}


def build_argv(sub, v, work):
    """The command line (and its input files in work) for field values v."""
    atom = {"L": v.get("L"), "S": v.get("S")}
    if sub == "tubes":
        config = {
            "tubes": [atom], "kappa": v["kappa"],
            "pump": {"breakpoints": [0.0, v["breakpoint"]], "c": [v["c0"], v["c1"]]},
            "t_max": v["t_max"], "n_steps": v["n_steps"],
        }
    else:
        config = {
            "measure": {"atoms": [atom]},
            **{k: v.get(k) for k in ("kappa", "alpha_max", "n_samples")},
        }
    (work / "config.json").write_text(json.dumps(config))
    argv = [sub]
    if sub not in ("mc", "ambiguity"):
        argv.append(str(work / ("curve.csv" if sub == "invert" else "config.json")))
    argv += [f"{k}={v[k]}" for k in v if k.startswith("--") and v[k] is not ABSENT]
    return argv + ["--out", str(work / FINITE[sub][0])]


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:        # argparse rejects a flag: usage, exit 2
        return exc.code


def written_volumes(sub, work):
    name, keys = FINITE[sub]
    path = work / name
    if name.endswith(".json"):
        report = json.loads(path.read_text())
        return np.array([report[k] for k in keys], dtype=float)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return rows[:, [header.index(k) for k in keys]]


def corruptions(sub, size):
    """size distinct fields of sub, each with a value from BAD, or for a
    config field from BAD or WRONG_TYPE."""
    pairs = [
        (field, bad) for field in sorted(FIELDS[sub])
        for bad in BAD + (() if field.startswith("--") else WRONG_TYPE)
    ]
    return st.lists(
        st.sampled_from(pairs), min_size=size, max_size=size, unique_by=lambda p: p[0]
    )


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "curve.csv").write_text(CURVE_CSV)
    return path


def check_run(work, sub, changed):
    values = {**FIELDS[sub], **dict(changed)}
    (work / FINITE[sub][0]).unlink(missing_ok=True)
    code = run(build_argv(sub, values, work))
    assert code in (0, 2), (code, values)
    if code == 0:
        assert np.all(np.isfinite(written_volumes(sub, work))), values


# one bad field: at most 8 config fields x 15 values (or 9 flags x 10), a
# space hypothesis exhausts (it draws each pair at most once, so 120
# examples draw them all)
@pytest.mark.parametrize("sub", sorted(FIELDS))
@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_field(work, sub, data):
    check_run(work, sub, data.draw(corruptions(sub, 1)))


@pytest.mark.parametrize("sub", sorted(FIELDS))
@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_two_bad_fields(work, sub, data):
    check_run(work, sub, data.draw(corruptions(sub, 2)))


# valid numbers of each forward config field, JSON integers among them
FORWARD_VALUES = {
    "kappa": (0.5, 0.25), "alpha_max": (10.0, 12), "n_samples": (21, 11),
    "L": (4.0, 2), "S": (1.0, 0.5), "a": (3.0, 1), "b": (9.0, 10), "rho": (1.0, 0),
}


# no field, or one field, of another JSON type: each such value in each field
@pytest.mark.parametrize(
    "wrong", [{}] + [{k: w} for k in sorted(FORWARD_VALUES) for w in WRONG_TYPE], ids=repr
)
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_forward_runs_if_and_only_if_the_api_takes_the_config(work, wrong, data):
    v = {k: data.draw(st.sampled_from(valid), label=k) for k, valid in FORWARD_VALUES.items()}
    v.update(wrong)
    config = {
        "measure": {
            "atoms": [{"L": v["L"], "S": v["S"]}],
            "pieces": [{"a": v["a"], "b": v["b"], "rho": v["rho"]}],
        },
        **{k: v[k] for k in ("kappa", "alpha_max", "n_samples")},
    }
    (work / "config.json").write_text(json.dumps(config))
    try:
        mu = Measure(atoms=((v["L"], v["S"]),), pieces=((v["a"], v["b"], v["rho"]),))
        forward.build_curve(mu, v["kappa"], v["alpha_max"], v["n_samples"])
        want = 0
    except ArgumentError:
        want = 2
    out = work / "out.csv"
    out.unlink(missing_ok=True)
    assert run(["forward", str(work / "config.json"), "--out", str(out)]) == want, v
    assert out.exists() == (want == 0)
